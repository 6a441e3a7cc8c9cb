package fir

import "fmt"

// Op enumerates the primitive operators usable in a Let binding. Heap
// operators (OpAlloc, OpLoad, OpStore, …) are the only way FIR code touches
// mutable state; everything else is pure.
type Op uint8

const (
	// Integer arithmetic. Args: int, int → int (OpNeg/OpNot take one arg).
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // traps on divide by zero
	OpMod // traps on divide by zero
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr

	// Integer comparison. Args: int, int → int (0 or 1).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Float arithmetic. Args: float, float → float (OpFNeg takes one).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Float comparison. Args: float, float → int (0 or 1).
	OpFEq
	OpFNe
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// Conversions.
	OpIntToFloat // int → float
	OpFloatToInt // float → int (truncating)

	// Heap operations. Pointers are (base, offset) pairs; OpAlloc yields a
	// pointer with offset 0. All accesses are bounds- and tag-checked by
	// the runtime through the pointer table (§4.1.1).
	OpAlloc    // size:int → ptr          allocate a block of `size` words
	OpLoad     // ptr, off:int → any      load word at base.offset+off (result type from DstType)
	OpStore    // ptr, off:int, val → unit
	OpLen      // ptr → int               number of words in the block
	OpPtrAdd   // ptr, delta:int → ptr    adjust the offset component
	OpPtrBase  // ptr → ptr               reset offset to zero
	OpPtrOff   // ptr → int               current offset component
	OpPtrEq    // ptr, ptr → int          same block and offset
	OpPtrNull  // → ptr                   the null pointer
	OpPtrIsNil // ptr → int               1 when the pointer is null

	// OpMove copies any value unchanged; used by the frontend to rename.
	OpMove
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpFEq: "feq", OpFNe: "fne", OpFLt: "flt", OpFLe: "fle", OpFGt: "fgt", OpFGe: "fge",
	OpIntToFloat: "itof", OpFloatToInt: "ftoi",
	OpAlloc: "alloc", OpLoad: "load", OpStore: "store", OpLen: "len",
	OpPtrAdd: "ptradd", OpPtrBase: "ptrbase", OpPtrOff: "ptroff",
	OpPtrEq: "ptreq", OpPtrNull: "ptrnull", OpPtrIsNil: "ptrisnil",
	OpMove: "move",
}

func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// opSig describes an operator's argument types and result type for the type
// checker. A nil entry in args means "any value type" (used by store/move);
// a nil result means "result type is taken from the Let's DstType" (load,
// move).
type opSig struct {
	args   []*Type
	result *Type
}

var (
	tInt   = &TyInt
	tFloat = &TyFloat
	tPtr   = &TyPtr
	tUnit  = &TyUnit
)

// opSigs is indexed by Op; see sigOf.
var opSigs = [...]opSig{
	OpAdd: {[]*Type{tInt, tInt}, tInt},
	OpSub: {[]*Type{tInt, tInt}, tInt},
	OpMul: {[]*Type{tInt, tInt}, tInt},
	OpDiv: {[]*Type{tInt, tInt}, tInt},
	OpMod: {[]*Type{tInt, tInt}, tInt},
	OpNeg: {[]*Type{tInt}, tInt},
	OpAnd: {[]*Type{tInt, tInt}, tInt},
	OpOr:  {[]*Type{tInt, tInt}, tInt},
	OpXor: {[]*Type{tInt, tInt}, tInt},
	OpNot: {[]*Type{tInt}, tInt},
	OpShl: {[]*Type{tInt, tInt}, tInt},
	OpShr: {[]*Type{tInt, tInt}, tInt},

	OpEq: {[]*Type{tInt, tInt}, tInt},
	OpNe: {[]*Type{tInt, tInt}, tInt},
	OpLt: {[]*Type{tInt, tInt}, tInt},
	OpLe: {[]*Type{tInt, tInt}, tInt},
	OpGt: {[]*Type{tInt, tInt}, tInt},
	OpGe: {[]*Type{tInt, tInt}, tInt},

	OpFAdd: {[]*Type{tFloat, tFloat}, tFloat},
	OpFSub: {[]*Type{tFloat, tFloat}, tFloat},
	OpFMul: {[]*Type{tFloat, tFloat}, tFloat},
	OpFDiv: {[]*Type{tFloat, tFloat}, tFloat},
	OpFNeg: {[]*Type{tFloat}, tFloat},

	OpFEq: {[]*Type{tFloat, tFloat}, tInt},
	OpFNe: {[]*Type{tFloat, tFloat}, tInt},
	OpFLt: {[]*Type{tFloat, tFloat}, tInt},
	OpFLe: {[]*Type{tFloat, tFloat}, tInt},
	OpFGt: {[]*Type{tFloat, tFloat}, tInt},
	OpFGe: {[]*Type{tFloat, tFloat}, tInt},

	OpIntToFloat: {[]*Type{tInt}, tFloat},
	OpFloatToInt: {[]*Type{tFloat}, tInt},

	OpAlloc:    {[]*Type{tInt}, tPtr},
	OpLoad:     {[]*Type{tPtr, tInt}, nil},
	OpStore:    {[]*Type{tPtr, tInt, nil}, tUnit},
	OpLen:      {[]*Type{tPtr}, tInt},
	OpPtrAdd:   {[]*Type{tPtr, tInt}, tPtr},
	OpPtrBase:  {[]*Type{tPtr}, tPtr},
	OpPtrOff:   {[]*Type{tPtr}, tInt},
	OpPtrEq:    {[]*Type{tPtr, tPtr}, tInt},
	OpPtrNull:  {[]*Type{}, tPtr},
	OpPtrIsNil: {[]*Type{tPtr}, tInt},

	OpMove: {[]*Type{nil}, nil},
}

// sigOf returns op's signature; ok is false for an unknown operator (every
// known one has a non-nil argument list).
func sigOf(op Op) (sig opSig, ok bool) {
	if int(op) < len(opSigs) {
		sig = opSigs[op]
	}
	return sig, sig.args != nil
}
