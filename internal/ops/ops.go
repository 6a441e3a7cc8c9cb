// Package ops implements the evaluation of FIR primitive operators against
// the runtime heap. Both engines — the interpreter (internal/vm) and the
// threaded-code engine (internal/jit), on its generic path — evaluate
// operators through this package, guaranteeing the two runtime environments
// agree on semantics (the paper's architecture-independence story depends
// on it).
package ops

import (
	"fmt"

	"repro/internal/fir"
	"repro/internal/heap"
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Eval applies op to args. For OpLoad, dst declares the expected type of
// the loaded word and the tag is checked (the runtime type checking of §3).
func Eval(h *heap.Heap, op fir.Op, args []heap.Value, dst fir.Type) (heap.Value, error) {
	ival := func(i int) (int64, error) {
		if args[i].Kind != heap.KInt {
			return 0, fmt.Errorf("ops: %s operand %d is %s, want int", op, i, args[i].Kind)
		}
		return args[i].I, nil
	}
	fval := func(i int) (float64, error) {
		if args[i].Kind != heap.KFloat {
			return 0, fmt.Errorf("ops: %s operand %d is %s, want float", op, i, args[i].Kind)
		}
		return args[i].F, nil
	}
	pval := func(i int) (heap.Value, error) {
		if args[i].Kind != heap.KPtr {
			return heap.Value{}, fmt.Errorf("ops: %s operand %d is %s, want ptr", op, i, args[i].Kind)
		}
		return args[i], nil
	}

	switch op {
	case fir.OpAdd, fir.OpSub, fir.OpMul, fir.OpDiv, fir.OpMod,
		fir.OpAnd, fir.OpOr, fir.OpXor, fir.OpShl, fir.OpShr,
		fir.OpEq, fir.OpNe, fir.OpLt, fir.OpLe, fir.OpGt, fir.OpGe:
		x, err := ival(0)
		if err != nil {
			return heap.Value{}, err
		}
		y, err := ival(1)
		if err != nil {
			return heap.Value{}, err
		}
		return evalIntBinary(op, x, y)

	case fir.OpNeg:
		x, err := ival(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(-x), nil
	case fir.OpNot:
		x, err := ival(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(b2i(x == 0)), nil

	case fir.OpFAdd, fir.OpFSub, fir.OpFMul, fir.OpFDiv,
		fir.OpFEq, fir.OpFNe, fir.OpFLt, fir.OpFLe, fir.OpFGt, fir.OpFGe:
		x, err := fval(0)
		if err != nil {
			return heap.Value{}, err
		}
		y, err := fval(1)
		if err != nil {
			return heap.Value{}, err
		}
		return evalFloatBinary(op, x, y), nil

	case fir.OpFNeg:
		x, err := fval(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.FloatVal(-x), nil

	case fir.OpIntToFloat:
		x, err := ival(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.FloatVal(float64(x)), nil
	case fir.OpFloatToInt:
		x, err := fval(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(int64(x)), nil

	case fir.OpAlloc:
		n, err := ival(0)
		if err != nil {
			return heap.Value{}, err
		}
		return h.Alloc(n)
	case fir.OpLoad:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		off, err := ival(1)
		if err != nil {
			return heap.Value{}, err
		}
		v, err := h.Load(p, off)
		if err != nil {
			return heap.Value{}, err
		}
		if err := CheckKind(v, dst); err != nil {
			return heap.Value{}, err
		}
		return v, nil
	case fir.OpStore:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		off, err := ival(1)
		if err != nil {
			return heap.Value{}, err
		}
		if err := h.Store(p, off, args[2]); err != nil {
			return heap.Value{}, err
		}
		return heap.UnitVal(), nil
	case fir.OpLen:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		n, err := h.BlockSize(p)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(n), nil
	case fir.OpPtrAdd:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		d, err := ival(1)
		if err != nil {
			return heap.Value{}, err
		}
		p.Off += d
		return p, nil
	case fir.OpPtrBase:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		p.Off = 0
		return p, nil
	case fir.OpPtrOff:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(p.Off), nil
	case fir.OpPtrEq:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		q, err := pval(1)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.BoolVal(p.Equal(q)), nil
	case fir.OpPtrNull:
		return heap.Null(), nil
	case fir.OpPtrIsNil:
		p, err := pval(0)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.BoolVal(p.IsNull()), nil
	case fir.OpMove:
		return args[0], nil
	default:
		return heap.Value{}, fmt.Errorf("ops: unknown operator %v", op)
	}
}

func evalIntBinary(op fir.Op, x, y int64) (heap.Value, error) {
	switch op {
	case fir.OpAdd:
		return heap.IntVal(x + y), nil
	case fir.OpSub:
		return heap.IntVal(x - y), nil
	case fir.OpMul:
		return heap.IntVal(x * y), nil
	case fir.OpDiv:
		if y == 0 {
			return heap.Value{}, fmt.Errorf("ops: integer division by zero")
		}
		return heap.IntVal(x / y), nil
	case fir.OpMod:
		if y == 0 {
			return heap.Value{}, fmt.Errorf("ops: integer modulo by zero")
		}
		return heap.IntVal(x % y), nil
	case fir.OpAnd:
		return heap.IntVal(x & y), nil
	case fir.OpOr:
		return heap.IntVal(x | y), nil
	case fir.OpXor:
		return heap.IntVal(x ^ y), nil
	case fir.OpShl:
		if y < 0 || y > 63 {
			return heap.Value{}, fmt.Errorf("ops: shift amount %d out of range", y)
		}
		return heap.IntVal(x << uint(y)), nil
	case fir.OpShr:
		if y < 0 || y > 63 {
			return heap.Value{}, fmt.Errorf("ops: shift amount %d out of range", y)
		}
		return heap.IntVal(x >> uint(y)), nil
	case fir.OpEq:
		return heap.IntVal(b2i(x == y)), nil
	case fir.OpNe:
		return heap.IntVal(b2i(x != y)), nil
	case fir.OpLt:
		return heap.IntVal(b2i(x < y)), nil
	case fir.OpLe:
		return heap.IntVal(b2i(x <= y)), nil
	case fir.OpGt:
		return heap.IntVal(b2i(x > y)), nil
	case fir.OpGe:
		return heap.IntVal(b2i(x >= y)), nil
	default:
		return heap.Value{}, fmt.Errorf("ops: %v is not an integer binary operator", op)
	}
}

func evalFloatBinary(op fir.Op, x, y float64) heap.Value {
	switch op {
	case fir.OpFAdd:
		return heap.FloatVal(x + y)
	case fir.OpFSub:
		return heap.FloatVal(x - y)
	case fir.OpFMul:
		return heap.FloatVal(x * y)
	case fir.OpFDiv:
		return heap.FloatVal(x / y)
	case fir.OpFEq:
		return heap.BoolVal(x == y)
	case fir.OpFNe:
		return heap.BoolVal(x != y)
	case fir.OpFLt:
		return heap.BoolVal(x < y)
	case fir.OpFLe:
		return heap.BoolVal(x <= y)
	case fir.OpFGt:
		return heap.BoolVal(x > y)
	case fir.OpFGe:
		return heap.BoolVal(x >= y)
	default:
		return heap.Value{}
	}
}

// CheckKind verifies a runtime value against a FIR type.
func CheckKind(v heap.Value, t fir.Type) error {
	var want heap.Kind
	switch t.Kind {
	case fir.KindInt:
		want = heap.KInt
	case fir.KindFloat:
		want = heap.KFloat
	case fir.KindPtr:
		want = heap.KPtr
	case fir.KindFun:
		want = heap.KFun
	case fir.KindUnit:
		want = heap.KUnit
	default:
		return fmt.Errorf("ops: unknown type %v", t)
	}
	if v.Kind != want {
		return fmt.Errorf("ops: value %s does not have type %s", v, t)
	}
	return nil
}
