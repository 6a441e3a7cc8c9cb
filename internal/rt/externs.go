package rt

import (
	"fmt"

	"repro/internal/fir"
	"repro/internal/heap"
)

// StdExterns returns the standard external functions every MCC process
// gets, on any engine: console output, process arguments, a
// deterministic PRNG, and speculation introspection (the C-level specid
// machinery lowers onto spec_id / spec_ordinal).
func StdExterns() Registry {
	r := make(Registry)

	r["print_int"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyInt}, Result: fir.TyUnit},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			fmt.Fprintf(rt.Stdout(), "%d\n", a[0].I)
			return heap.UnitVal(), nil
		},
	}
	r["print_float"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyFloat}, Result: fir.TyUnit},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			fmt.Fprintf(rt.Stdout(), "%g\n", a[0].F)
			return heap.UnitVal(), nil
		},
	}
	r["print_str"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyPtr}, Result: fir.TyUnit},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			s, err := rt.Heap().LoadString(a[0])
			if err != nil {
				return heap.Value{}, err
			}
			fmt.Fprintln(rt.Stdout(), s)
			return heap.UnitVal(), nil
		},
	}
	r["print_char"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyInt}, Result: fir.TyUnit},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			fmt.Fprintf(rt.Stdout(), "%c", rune(a[0].I))
			return heap.UnitVal(), nil
		},
	}

	// getarg(i) returns the i-th process argument, or 0 when out of range.
	// The grid application uses it for the node id and dimensions.
	r["getarg"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyInt}, Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			return heap.IntVal(rt.Arg(a[0].I)), nil
		},
	}
	r["nargs"] = Extern{
		Sig: fir.ExternSig{Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			return heap.IntVal(rt.NArgs()), nil
		},
	}

	// rand_int(n) returns a deterministic pseudo-random integer in [0, n)
	// (seeded per process; n <= 0 yields 0).
	r["rand_int"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyInt}, Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			return heap.IntVal(rt.Rand(a[0].I)), nil
		},
	}

	// spec_id returns the stable ID of the innermost speculation level, or
	// 0 when no speculation is open. This is what the C-level
	// `specid = speculate()` evaluates after entry.
	r["spec_id"] = Extern{
		Sig: fir.ExternSig{Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			id, err := rt.Spec().CurrentID()
			if err != nil {
				return heap.IntVal(0), nil
			}
			return heap.IntVal(id), nil
		},
	}

	// spec_ordinal(id) maps a stable speculation ID to its current level
	// ordinal (1..N), or 0 when the ID is no longer open. The frontend
	// inserts it before commit/rollback, which address levels by ordinal.
	r["spec_ordinal"] = Extern{
		Sig: fir.ExternSig{Args: []fir.Type{fir.TyInt}, Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			ord, err := rt.Spec().OrdinalOf(a[0].I)
			if err != nil {
				return heap.IntVal(0), nil
			}
			return heap.IntVal(int64(ord)), nil
		},
	}
	r["spec_depth"] = Extern{
		Sig: fir.ExternSig{Result: fir.TyInt},
		Fn: func(rt Runtime, a []heap.Value) (heap.Value, error) {
			return heap.IntVal(int64(rt.Spec().Depth())), nil
		},
	}
	return r
}
