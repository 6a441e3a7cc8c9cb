// Package heap implements the MCC runtime heap: an arena of blocks
// indirected through a pointer table, with tagged words that give the
// runtime type checking the paper's §3 promises, copy-on-write speculation
// levels (§4.3), and the mark-sweep compacting collection mechanism the
// collector policy in internal/gc drives.
//
// Copy-on-write keeps the pre-image, not the new copy, apart: a level's
// first write to a block saves the block's words in the level's shadow, a
// buffer off the arena, and the write lands in place. Commit drops the
// shadow; rollback copies it back. A store therefore never allocates
// arena words or collects.
//
// Arenas and shadow buffers are recycled across the heaps of a process:
// Release, called when a heap's process ends, gives its arena to the next
// heap New, growth or Restore takes. Reused words are not cleared; every
// block is written before it is read (Alloc zeroes, Restore and
// compaction copy), and every read is checked against its block.
//
// The pointer table (§4.1.1) is the load-bearing idea: source-level
// pointers are (base, offset) pairs where base is an index into the table,
// never a machine address. Because no real addresses are ever stored in
// heap data, the heap can be relocated (compaction), preserved and restored
// (speculation) or serialized and rebuilt on another machine (migration)
// without rewriting block contents.
package heap

import "fmt"

// Kind tags a heap word or register value.
type Kind uint8

const (
	// KUnit is the unit value (not storable in blocks).
	KUnit Kind = iota
	// KInt is a 64-bit signed integer (also used for booleans and chars).
	KInt
	// KFloat is a 64-bit IEEE-754 float.
	KFloat
	// KPtr is a (pointer-table index, word offset) pair. Index -1 is the
	// null pointer.
	KPtr
	// KFun is an index into the function table.
	KFun
)

func (k Kind) String() string {
	switch k {
	case KUnit:
		return "unit"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KPtr:
		return "ptr"
	case KFun:
		return "fun"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a tagged runtime word. For KInt, I holds the integer; for KPtr,
// I holds the pointer-table index and Off the word offset within the
// block; for KFun, I holds the function-table index; for KFloat, F holds
// the payload.
type Value struct {
	Kind Kind
	I    int64
	Off  int64
	F    float64
}

// Constructors for each value kind.

// IntVal returns an integer value.
func IntVal(v int64) Value { return Value{Kind: KInt, I: v} }

// BoolVal returns 1 for true and 0 for false as an integer value.
func BoolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// FloatVal returns a float value.
func FloatVal(v float64) Value { return Value{Kind: KFloat, F: v} }

// PtrVal returns a pointer value referencing table entry idx at offset off.
func PtrVal(idx, off int64) Value { return Value{Kind: KPtr, I: idx, Off: off} }

// FunVal returns a function value referencing function-table index idx.
func FunVal(idx int64) Value { return Value{Kind: KFun, I: idx} }

// UnitVal returns the unit value.
func UnitVal() Value { return Value{Kind: KUnit} }

// Null returns the null pointer.
func Null() Value { return Value{Kind: KPtr, I: -1} }

// IsNull reports whether v is the null pointer.
func (v Value) IsNull() bool { return v.Kind == KPtr && v.I < 0 }

func (v Value) String() string {
	switch v.Kind {
	case KUnit:
		return "()"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KPtr:
		if v.I < 0 {
			return "null"
		}
		return fmt.Sprintf("ptr(%d+%d)", v.I, v.Off)
	case KFun:
		return fmt.Sprintf("fun(%d)", v.I)
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.Kind))
	}
}

// Equal reports exact equality of two values (kind and payload).
func (v Value) Equal(u Value) bool {
	if v.Kind != u.Kind {
		return false
	}
	switch v.Kind {
	case KUnit:
		return true
	case KFloat:
		return v.F == u.F
	case KPtr:
		if v.I < 0 && u.I < 0 {
			return true
		}
		return v.I == u.I && v.Off == u.Off
	default:
		return v.I == u.I
	}
}
