package lang

import (
	"fmt"

	"repro/internal/fir"
)

// expr compiles an expression in CPS: k receives an atom holding the
// value. Expressions never mutate the environment (MojC has no assignment
// expressions), so env is read-only here; calls to user functions split
// the control flow into a materialized continuation with a heap-allocated
// closure environment.
func (f *fnLower) expr(e Expr, ev *env, k func(fir.Atom) fir.Expr) fir.Expr {
	switch e := e.(type) {
	case *IntLit:
		return k(fir.I(e.V))
	case *FloatLit:
		return k(fir.F(e.V))

	case *StrLit:
		// Strings are NUL-terminated int-word blocks built inline.
		runes := []rune(e.V)
		t := f.l.fresh("str")
		inner := k(fir.V(t))
		u := f.l.fresh("u")
		inner = fir.Let{Dst: u, DstType: fir.TyUnit, Op: fir.OpStore,
			Args: []fir.Atom{fir.V(t), fir.I(int64(len(runes))), fir.I(0)}, Body: inner}
		for i := len(runes) - 1; i >= 0; i-- {
			u := f.l.fresh("u")
			inner = fir.Let{Dst: u, DstType: fir.TyUnit, Op: fir.OpStore,
				Args: []fir.Atom{fir.V(t), fir.I(int64(i)), fir.I(int64(runes[i]))}, Body: inner}
		}
		return fir.Let{Dst: t, DstType: fir.TyPtr, Op: fir.OpAlloc,
			Args: []fir.Atom{fir.I(int64(len(runes)) + 1)}, Body: inner}

	case *Ident:
		b := ev.find(e.Name)
		if b == nil {
			panic(lowerPanic{errf(e.P.Line, e.P.Col, "internal: unbound %q after sema", e.Name)})
		}
		return k(fir.V(b.fir))

	case *Unary:
		return f.expr(e.X, ev, func(a fir.Atom) fir.Expr {
			dst := f.l.fresh("t")
			switch e.Op {
			case "!":
				return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpNot, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
			case "-":
				if f.l.sm.types[e.X] == TFloat {
					return fir.Let{Dst: dst, DstType: fir.TyFloat, Op: fir.OpFNeg, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
				}
				return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpNeg, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
			}
			panic(lowerPanic{errf(e.P.Line, e.P.Col, "internal: unary %q", e.Op)})
		})

	case *Binary:
		if e.Op == "&&" || e.Op == "||" {
			return f.logical(e, ev, k)
		}
		lt := f.l.sm.types[e.L]
		return f.expr(e.L, ev, func(la fir.Atom) fir.Expr {
			return f.protect(ev, firType(lt), la, func(getL func() fir.Atom) fir.Expr {
				return f.expr(e.R, ev, func(ra fir.Atom) fir.Expr {
					la := getL()
					dst := f.l.fresh("t")
					if lt.pointer() && e.Op == "!=" {
						ne := f.l.fresh("t")
						return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpPtrEq, Args: []fir.Atom{la, ra},
							Body: fir.Let{Dst: ne, DstType: fir.TyInt, Op: fir.OpNot, Args: []fir.Atom{fir.V(dst)}, Body: k(fir.V(ne))}}
					}
					op, rt := binaryOp(e.Op, lt)
					return fir.Let{Dst: dst, DstType: rt, Op: op, Args: []fir.Atom{la, ra}, Body: k(fir.V(dst))}
				})
			})
		})

	case *Index:
		elem := f.l.sm.types[e.Base].elem()
		return f.expr(e.Base, ev, func(ba fir.Atom) fir.Expr {
			return f.protect(ev, fir.TyPtr, ba, func(getB func() fir.Atom) fir.Expr {
				return f.expr(e.Idx, ev, func(ia fir.Atom) fir.Expr {
					dst := f.l.fresh("t")
					return fir.Let{Dst: dst, DstType: firType(elem), Op: fir.OpLoad, Args: []fir.Atom{getB(), ia}, Body: k(fir.V(dst))}
				})
			})
		})

	case *Call:
		return f.callExpr(e, ev, k)

	default:
		panic(lowerPanic{fmt.Errorf("mojc: cannot lower expression %T", e)})
	}
}

// exprs compiles an argument list left to right, protecting every earlier
// argument across the compilation of the later ones.
func (f *fnLower) exprs(list []Expr, ev *env, k func([]fir.Atom) fir.Expr) fir.Expr {
	if len(list) == 0 {
		return k(nil)
	}
	t := firType(f.l.sm.types[list[0]])
	return f.expr(list[0], ev, func(a fir.Atom) fir.Expr {
		return f.protect(ev, t, a, func(get func() fir.Atom) fir.Expr {
			return f.exprs(list[1:], ev, func(rest []fir.Atom) fir.Expr {
				return k(append([]fir.Atom{get()}, rest...))
			})
		})
	})
}

// protect keeps an intermediate atom alive across a subcompilation that
// may split the current function (a user call materializes a continuation
// and reloads only environment bindings, so bare atoms held in Go closures
// would dangle). It binds the atom as an anonymous environment temporary;
// gen receives a getter that resolves the temporary's current FIR name at
// generation time.
func (f *fnLower) protect(ev *env, ft fir.Type, a fir.Atom, gen func(get func() fir.Atom) fir.Expr) fir.Expr {
	switch a := a.(type) {
	case fir.IntLit, fir.FloatLit, fir.FunLit, fir.UnitLit:
		// Literals survive splits unchanged.
		return gen(func() fir.Atom { return a })
	case fir.Var:
		// A variable's current value needs no temporary: expressions never
		// assign, so after a split the binding's reloaded name holds the
		// same value. A temporary would stay in the environment — in every
		// continuation's parameters and closure — for the rest of the
		// function.
		if name, ok := ev.current(a.Name); ok {
			return gen(func() fir.Atom { return fir.V(ev.find(name).fir) })
		}
	}
	tmp := f.l.fresh("tmp")
	name := tmp // unique, never collides with source names
	m := ev.mark()
	ev.declareTyped(name, ft, tmp)
	body := gen(func() fir.Atom { return fir.V(ev.find(name).fir) })
	ev.release(m)
	return fir.Let{Dst: tmp, DstType: ft, Op: fir.OpMove, Args: []fir.Atom{a}, Body: body}
}

// logical compiles short-circuit && and || with a materialized join so the
// continuation is generated exactly once.
func (f *fnLower) logical(e *Binary, ev *env, k func(fir.Atom) fir.Expr) fir.Expr {
	n := len(ev.vars)
	name := f.materialize("bjoin", ev, []fir.Param{{Name: "$t", Type: fir.TyInt}},
		func(inner *env) fir.Expr {
			// k reads env lazily: rebind during generation, then restore.
			saved := ev.vars
			ev.vars = inner.vars
			body := k(fir.V("$t"))
			ev.vars = saved
			return body
		})

	jump := func(a fir.Atom) fir.Expr {
		// Slice to the capture-time prefix: evaluating the right operand
		// may have pushed protect() temporaries past it.
		return fir.Call{Fn: fir.FunLit{Name: name}, Args: append([]fir.Atom{a}, ev.atoms()[:n]...)}
	}
	norm := func(a fir.Atom) fir.Expr {
		dst := f.l.fresh("b")
		return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpNe, Args: []fir.Atom{a, fir.I(0)}, Body: jump(fir.V(dst))}
	}

	return f.expr(e.L, ev, func(la fir.Atom) fir.Expr {
		evalR := f.expr(e.R, ev, norm)
		if e.Op == "&&" {
			return fir.If{Cond: la, Then: evalR, Else: jump(fir.I(0))}
		}
		return fir.If{Cond: la, Then: jump(fir.I(1)), Else: evalR}
	})
}

// callExpr compiles calls in expression position: builtins, externs, and
// user functions (which require a continuation split with closure
// conversion: live variables are spilled into a heap block the
// continuation reloads).
func (f *fnLower) callExpr(e *Call, ev *env, k func(fir.Atom) fir.Expr) fir.Expr {
	switch e.Name {
	case "int":
		at := f.l.sm.types[e.Args[0]]
		return f.expr(e.Args[0], ev, func(a fir.Atom) fir.Expr {
			if at == TInt {
				return k(a)
			}
			dst := f.l.fresh("t")
			return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpFloatToInt, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
		})
	case "float":
		at := f.l.sm.types[e.Args[0]]
		return f.expr(e.Args[0], ev, func(a fir.Atom) fir.Expr {
			if at == TFloat {
				return k(a)
			}
			dst := f.l.fresh("t")
			return fir.Let{Dst: dst, DstType: fir.TyFloat, Op: fir.OpIntToFloat, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
		})
	case "alloc", "falloc":
		return f.expr(e.Args[0], ev, func(a fir.Atom) fir.Expr {
			dst := f.l.fresh("p")
			return fir.Let{Dst: dst, DstType: fir.TyPtr, Op: fir.OpAlloc, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
		})
	case "len":
		return f.expr(e.Args[0], ev, func(a fir.Atom) fir.Expr {
			dst := f.l.fresh("n")
			return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpLen, Args: []fir.Atom{a}, Body: k(fir.V(dst))}
		})
	case "speculate", "commit", "abort", "retry", "migrate":
		panic(lowerPanic{errf(e.P.Line, e.P.Col, "internal: %s reached expression lowering", e.Name)})
	}

	if sig, ok := f.l.sm.externs[e.Name]; ok {
		return f.exprs(e.Args, ev, func(args []fir.Atom) fir.Expr {
			dst := f.l.fresh("x")
			res := fir.Atom(fir.V(dst))
			ft := firType(sig.ret)
			if sig.ret == TVoid {
				ft = fir.TyUnit
				res = fir.UnitLit{}
			}
			return fir.Extern{Dst: dst, DstType: ft, Name: e.Name, Args: args, Body: k(res)}
		})
	}

	sig, ok := f.l.sm.funcs[e.Name]
	if !ok {
		panic(lowerPanic{errf(e.P.Line, e.P.Col, "internal: unknown callee %q after sema", e.Name)})
	}
	return f.exprs(e.Args, ev, func(args []fir.Atom) fir.Expr {
		// Materialize the return continuation: ($kenv, res?) reloading
		// every live binding from the environment block.
		retName := f.l.fresh("ret")
		kenvP := f.l.fresh("kenv")
		var lead []fir.Param
		lead = append(lead, fir.Param{Name: kenvP, Type: fir.TyPtr})
		resName := ""
		if sig.ret != TVoid {
			resName = f.l.fresh("res")
			lead = append(lead, fir.Param{Name: resName, Type: firType(sig.ret)})
		}
		inner := ev.clone()
		body := func() fir.Expr {
			// Reload bindings from the closure environment. Snapshot the
			// reload names first: k may rebind variables (assignments),
			// and the load destinations must be the names k started from.
			names := make([]string, len(inner.vars))
			types := make([]fir.Type, len(inner.vars))
			for i := range inner.vars {
				names[i] = f.l.fresh(inner.vars[i].name)
				types[i] = inner.vars[i].ftype
				inner.vars[i].fir = names[i]
			}
			saved := ev.vars
			ev.vars = inner.vars
			var tail fir.Expr
			if sig.ret != TVoid {
				tail = k(fir.V(resName))
			} else {
				tail = k(fir.UnitLit{})
			}
			ev.vars = saved
			// Wrap loads back-to-front.
			for i := len(names) - 1; i >= 0; i-- {
				tail = fir.Let{Dst: names[i], DstType: types[i], Op: fir.OpLoad,
					Args: []fir.Atom{fir.V(kenvP), fir.I(int64(i))}, Body: tail}
			}
			return tail
		}()
		f.l.emit(&fir.Function{Name: retName, Params: lead, Body: body})

		// Call site: allocate and fill the environment block, then tail
		// call the callee with (args..., envblock, $retN).
		blk := f.l.fresh("clo")
		var out fir.Expr = fir.Call{Fn: fir.FunLit{Name: e.Name},
			Args: append(append([]fir.Atom{}, args...), fir.V(blk), fir.FunLit{Name: retName})}
		for i := len(ev.vars) - 1; i >= 0; i-- {
			u := f.l.fresh("u")
			out = fir.Let{Dst: u, DstType: fir.TyUnit, Op: fir.OpStore,
				Args: []fir.Atom{fir.V(blk), fir.I(int64(i)), fir.V(ev.vars[i].fir)}, Body: out}
		}
		return fir.Let{Dst: blk, DstType: fir.TyPtr, Op: fir.OpAlloc,
			Args: []fir.Atom{fir.I(int64(len(ev.vars)))}, Body: out}
	})
}

// binaryOp maps a MojC binary operator at an operand type to a FIR op and
// result type.
func binaryOp(op string, lt Type) (fir.Op, fir.Type) {
	if lt == TFloat {
		switch op {
		case "+":
			return fir.OpFAdd, fir.TyFloat
		case "-":
			return fir.OpFSub, fir.TyFloat
		case "*":
			return fir.OpFMul, fir.TyFloat
		case "/":
			return fir.OpFDiv, fir.TyFloat
		case "==":
			return fir.OpFEq, fir.TyInt
		case "!=":
			return fir.OpFNe, fir.TyInt
		case "<":
			return fir.OpFLt, fir.TyInt
		case "<=":
			return fir.OpFLe, fir.TyInt
		case ">":
			return fir.OpFGt, fir.TyInt
		case ">=":
			return fir.OpFGe, fir.TyInt
		}
	}
	if lt.pointer() {
		switch op {
		case "==":
			return fir.OpPtrEq, fir.TyInt

		}
	}
	switch op {
	case "+":
		return fir.OpAdd, fir.TyInt
	case "-":
		return fir.OpSub, fir.TyInt
	case "*":
		return fir.OpMul, fir.TyInt
	case "/":
		return fir.OpDiv, fir.TyInt
	case "%":
		return fir.OpMod, fir.TyInt
	case "&":
		return fir.OpAnd, fir.TyInt
	case "|":
		return fir.OpOr, fir.TyInt
	case "^":
		return fir.OpXor, fir.TyInt
	case "==":
		return fir.OpEq, fir.TyInt
	case "!=":
		return fir.OpNe, fir.TyInt
	case "<":
		return fir.OpLt, fir.TyInt
	case "<=":
		return fir.OpLe, fir.TyInt
	case ">":
		return fir.OpGt, fir.TyInt
	case ">=":
		return fir.OpGe, fir.TyInt
	}
	return fir.OpMove, fir.TyInt
}
