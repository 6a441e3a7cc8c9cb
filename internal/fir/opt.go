package fir

// Optimize is the FIR optimization pass the MCC pipeline runs between
// lowering and the backend: constant folding, copy propagation, branch
// folding, and dead-binding elimination. The CPS lowering emits many
// move/literal temporaries, so this pass pays for itself in both executed
// steps and generated code size.
//
// The pass is deliberately conservative about effects: heap operators
// (alloc/load/store/len) and externals are never folded or dropped — loads
// can trap and allocations are observable — and integer division is folded
// only when the divisor is a non-zero literal, preserving trap behaviour.

// OptStats reports what Optimize did.
type OptStats struct {
	Folded     int // operator applications replaced by literals
	CopiesProp int // move bindings propagated away
	DeadLets   int // pure bindings removed
	IfsFolded  int // branches with literal conditions removed
}

// Optimize rewrites every function body in place and returns statistics.
func Optimize(p *Program) OptStats {
	var st OptStats
	for _, f := range p.Funcs {
		f.Body = optExpr(f.Body, map[string]Atom{}, &st)
		f.Body = dropDead(f.Body, &st)
	}
	return st
}

// subst resolves an atom through the copy/constant environment.
func subst(a Atom, env map[string]Atom) Atom {
	if v, ok := a.(Var); ok {
		if r, ok := env[v.Name]; ok {
			return r
		}
	}
	return a
}

func substAll(args []Atom, env map[string]Atom) []Atom {
	out := make([]Atom, len(args))
	for i, a := range args {
		out[i] = subst(a, env)
	}
	return out
}

// optExpr performs constant folding, copy propagation and branch folding.
func optExpr(e Expr, env map[string]Atom, st *OptStats) Expr {
	switch e2 := e.(type) {
	case Let:
		args := substAll(e2.Args, env)
		// Copy propagation: let x = move a ↦ uses of x become a.
		if e2.Op == OpMove {
			st.CopiesProp++
			env[e2.Dst] = args[0]
			return optExpr(e2.Body, env, st)
		}
		if lit, ok := foldOp(e2.Op, args); ok {
			st.Folded++
			env[e2.Dst] = lit
			return optExpr(e2.Body, env, st)
		}
		delete(env, e2.Dst) // a fresh binding shadows any propagated copy
		e2.Args = args
		e2.Body = optExpr(e2.Body, env, st)
		return e2

	case Extern:
		e2.Args = substAll(e2.Args, env)
		delete(env, e2.Dst)
		e2.Body = optExpr(e2.Body, env, st)
		return e2

	case If:
		cond := subst(e2.Cond, env)
		if lit, ok := cond.(IntLit); ok {
			st.IfsFolded++
			if lit.V != 0 {
				return optExpr(e2.Then, env, st)
			}
			return optExpr(e2.Else, env, st)
		}
		e2.Cond = cond
		// Branches need independent environments: a propagation valid in
		// one arm must not leak into the other.
		thenEnv := cloneEnv(env)
		e2.Then = optExpr(e2.Then, thenEnv, st)
		elseEnv := cloneEnv(env)
		e2.Else = optExpr(e2.Else, elseEnv, st)
		return e2

	case Call:
		e2.Fn = subst(e2.Fn, env)
		e2.Args = substAll(e2.Args, env)
		return e2
	case Halt:
		e2.Code = subst(e2.Code, env)
		return e2
	case Migrate:
		e2.Target = subst(e2.Target, env)
		e2.TargetOff = subst(e2.TargetOff, env)
		e2.Fn = subst(e2.Fn, env)
		e2.Args = substAll(e2.Args, env)
		return e2
	case Speculate:
		e2.Fn = subst(e2.Fn, env)
		e2.Args = substAll(e2.Args, env)
		return e2
	case Commit:
		e2.Level = subst(e2.Level, env)
		e2.Fn = subst(e2.Fn, env)
		e2.Args = substAll(e2.Args, env)
		return e2
	case Rollback:
		e2.Level = subst(e2.Level, env)
		e2.C = subst(e2.C, env)
		return e2
	default:
		return e
	}
}

func cloneEnv(env map[string]Atom) map[string]Atom {
	out := make(map[string]Atom, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// foldOp evaluates a pure operator over literal operands. It returns
// (result, true) only when folding cannot change observable behaviour.
func foldOp(op Op, args []Atom) (Atom, bool) {
	i2 := func() (int64, int64, bool) {
		a, okA := args[0].(IntLit)
		b, okB := args[1].(IntLit)
		return a.V, b.V, okA && okB
	}
	f2 := func() (float64, float64, bool) {
		a, okA := args[0].(FloatLit)
		b, okB := args[1].(FloatLit)
		return a.V, b.V, okA && okB
	}
	bi := func(b bool) Atom {
		if b {
			return IntLit{V: 1}
		}
		return IntLit{V: 0}
	}
	switch op {
	case OpAdd:
		if a, b, ok := i2(); ok {
			return IntLit{V: a + b}, true
		}
	case OpSub:
		if a, b, ok := i2(); ok {
			return IntLit{V: a - b}, true
		}
	case OpMul:
		if a, b, ok := i2(); ok {
			return IntLit{V: a * b}, true
		}
	case OpDiv:
		if a, b, ok := i2(); ok && b != 0 {
			return IntLit{V: a / b}, true
		}
	case OpMod:
		if a, b, ok := i2(); ok && b != 0 {
			return IntLit{V: a % b}, true
		}
	case OpAnd:
		if a, b, ok := i2(); ok {
			return IntLit{V: a & b}, true
		}
	case OpOr:
		if a, b, ok := i2(); ok {
			return IntLit{V: a | b}, true
		}
	case OpXor:
		if a, b, ok := i2(); ok {
			return IntLit{V: a ^ b}, true
		}
	case OpShl:
		if a, b, ok := i2(); ok && b >= 0 && b <= 63 {
			return IntLit{V: a << uint(b)}, true
		}
	case OpShr:
		if a, b, ok := i2(); ok && b >= 0 && b <= 63 {
			return IntLit{V: a >> uint(b)}, true
		}
	case OpEq:
		if a, b, ok := i2(); ok {
			return bi(a == b), true
		}
	case OpNe:
		if a, b, ok := i2(); ok {
			return bi(a != b), true
		}
	case OpLt:
		if a, b, ok := i2(); ok {
			return bi(a < b), true
		}
	case OpLe:
		if a, b, ok := i2(); ok {
			return bi(a <= b), true
		}
	case OpGt:
		if a, b, ok := i2(); ok {
			return bi(a > b), true
		}
	case OpGe:
		if a, b, ok := i2(); ok {
			return bi(a >= b), true
		}
	case OpNeg:
		if a, ok := args[0].(IntLit); ok {
			return IntLit{V: -a.V}, true
		}
	case OpNot:
		if a, ok := args[0].(IntLit); ok {
			return bi(a.V == 0), true
		}
	case OpFAdd:
		if a, b, ok := f2(); ok {
			return FloatLit{V: a + b}, true
		}
	case OpFSub:
		if a, b, ok := f2(); ok {
			return FloatLit{V: a - b}, true
		}
	case OpFMul:
		if a, b, ok := f2(); ok {
			return FloatLit{V: a * b}, true
		}
	case OpFDiv:
		if a, b, ok := f2(); ok {
			return FloatLit{V: a / b}, true
		}
	case OpFNeg:
		if a, ok := args[0].(FloatLit); ok {
			return FloatLit{V: -a.V}, true
		}
	case OpFEq:
		if a, b, ok := f2(); ok {
			return bi(a == b), true
		}
	case OpFNe:
		if a, b, ok := f2(); ok {
			return bi(a != b), true
		}
	case OpFLt:
		if a, b, ok := f2(); ok {
			return bi(a < b), true
		}
	case OpFLe:
		if a, b, ok := f2(); ok {
			return bi(a <= b), true
		}
	case OpFGt:
		if a, b, ok := f2(); ok {
			return bi(a > b), true
		}
	case OpFGe:
		if a, b, ok := f2(); ok {
			return bi(a >= b), true
		}
	case OpIntToFloat:
		if a, ok := args[0].(IntLit); ok {
			return FloatLit{V: float64(a.V)}, true
		}
	case OpFloatToInt:
		if a, ok := args[0].(FloatLit); ok {
			return IntLit{V: int64(a.V)}, true
		}
	}
	return nil, false
}

// pureOp reports whether dropping an unused binding of op is unobservable.
func pureOp(op Op) bool {
	switch op {
	case OpAlloc, OpLoad, OpStore, OpLen:
		// alloc is an effect (memory), load/len can trap, store mutates.
		return false
	case OpDiv, OpMod, OpShl, OpShr:
		// These trap on bad right operands; an unfolded instance was not
		// proven safe, so its trap is observable.
		return false
	default:
		return true
	}
}

// dropDead removes pure Let bindings whose destination is never used.
func dropDead(e Expr, st *OptStats) Expr {
	used := make(map[string]bool)
	var scan func(Expr)
	touch := func(a Atom) {
		if v, ok := a.(Var); ok {
			used[v.Name] = true
		}
	}
	scan = func(e Expr) {
		switch e2 := e.(type) {
		case Let:
			for _, a := range e2.Args {
				touch(a)
			}
			scan(e2.Body)
		case Extern:
			for _, a := range e2.Args {
				touch(a)
			}
			scan(e2.Body)
		case If:
			touch(e2.Cond)
			scan(e2.Then)
			scan(e2.Else)
		case Call:
			touch(e2.Fn)
			for _, a := range e2.Args {
				touch(a)
			}
		case Halt:
			touch(e2.Code)
		case Migrate:
			touch(e2.Target)
			touch(e2.TargetOff)
			touch(e2.Fn)
			for _, a := range e2.Args {
				touch(a)
			}
		case Speculate:
			touch(e2.Fn)
			for _, a := range e2.Args {
				touch(a)
			}
		case Commit:
			touch(e2.Level)
			touch(e2.Fn)
			for _, a := range e2.Args {
				touch(a)
			}
		case Rollback:
			touch(e2.Level)
			touch(e2.C)
		}
	}
	scan(e)

	var rw func(Expr) Expr
	rw = func(e Expr) Expr {
		switch e2 := e.(type) {
		case Let:
			e2.Body = rw(e2.Body)
			if !used[e2.Dst] && pureOp(e2.Op) {
				st.DeadLets++
				return e2.Body
			}
			return e2
		case Extern:
			e2.Body = rw(e2.Body)
			return e2
		case If:
			e2.Then = rw(e2.Then)
			e2.Else = rw(e2.Else)
			return e2
		default:
			return e
		}
	}
	return rw(e)
}
