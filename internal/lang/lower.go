package lang

import (
	"fmt"
	"strconv"

	"repro/internal/fir"
)

// Lowering converts MojC to FIR. The transformation is a classic CPS
// conversion with closure conversion, driven by the constraints FIR
// imposes (§3):
//
//   - FIR variables are immutable → mutable MojC locals become SSA-style
//     rebindings, with join points materialized as top-level FIR functions
//     whose parameters carry the live variables;
//   - FIR functions never return → every source function receives an
//     explicit continuation; because FIR has no closures, a continuation
//     is a (environment pointer, function index) pair, and call sites spill
//     their live variables into a heap-allocated environment block the
//     continuation reloads (closure conversion);
//   - loops become recursive functions with the loop-carried variables
//     (including the caller's continuation pair) as parameters;
//   - `x = speculate()` becomes the FIR speculate pseudo-instruction whose
//     continuation receives the status integer c and dispatches: first
//     entry and retry() re-entries bind x to the positive stable specid;
//     abort() re-entries commit the empty re-entered level and bind x to
//     -c, reproducing Figure 1's `if ((specid=speculate())>0)` pattern.

// cRetry is the rollback status the retry() builtin passes; cAbort is what
// abort() passes (2 is rt.TrapC, reserved for trapped runtime errors,
// which take the abort path).
const (
	cAbort = 1
	cRetry = 3
)

// Names of the implicit continuation bindings threaded through every
// function. '$' never appears in source identifiers, so no collisions.
const (
	kEnvVar = "$kenv"
	kFunVar = "$k"
)

// binding is one live variable tracked during lowering. ftype is the FIR
// type ($k bindings have function types not expressible as MojC types).
type binding struct {
	name  string
	typ   Type
	ftype fir.Type
	fir   string
}

// env is the ordered set of live bindings. Order is significant: it
// defines the parameter lists and environment-block layouts of
// materialized functions.
type env struct {
	vars []binding
}

func (e *env) clone() *env {
	// Room for the few bindings a continuation declares before its next
	// split; without it the first declare copies the environment again.
	out := &env{vars: make([]binding, len(e.vars), len(e.vars)+4)}
	copy(out.vars, e.vars)
	return out
}

func (e *env) declare(name string, t Type, firName string) {
	e.vars = append(e.vars, binding{name: name, typ: t, ftype: firType(t), fir: firName})
}

func (e *env) declareTyped(name string, ft fir.Type, firName string) {
	e.vars = append(e.vars, binding{name: name, typ: TInt, ftype: ft, fir: firName})
}

func (e *env) find(name string) *binding {
	for i := len(e.vars) - 1; i >= 0; i-- {
		if e.vars[i].name == name {
			return &e.vars[i]
		}
	}
	return nil
}

// current returns the source name of the binding whose current FIR name is
// firName, when that binding is the one its name resolves to.
func (e *env) current(firName string) (string, bool) {
	for i := len(e.vars) - 1; i >= 0; i-- {
		if e.vars[i].fir == firName {
			return e.vars[i].name, e.find(e.vars[i].name) == &e.vars[i]
		}
	}
	return "", false
}

func (e *env) mark() int     { return len(e.vars) }
func (e *env) release(n int) { e.vars = e.vars[:n] }

func (e *env) atoms() []fir.Atom {
	out := make([]fir.Atom, len(e.vars))
	for i, b := range e.vars {
		out[i] = fir.V(b.fir)
	}
	return out
}

func firType(t Type) fir.Type {
	switch t {
	case TFloat:
		return fir.TyFloat
	case TPtr, TFptr:
		return fir.TyPtr
	default:
		return fir.TyInt
	}
}

// lowerer holds program-wide lowering state.
type lowerer struct {
	sm       *sema
	out      []*fir.Function
	gen      int
	migLabel int
}

func (l *lowerer) fresh(prefix string) string {
	l.gen++
	// Strip any $ from reused prefixes to keep names readable.
	if len(prefix) > 0 && prefix[0] == '$' {
		prefix = prefix[1:]
	}
	return "$" + prefix + "_" + strconv.Itoa(l.gen)
}

func (l *lowerer) emit(f *fir.Function) { l.out = append(l.out, f) }

// kType returns the FIR type of a continuation function for a return type:
// fun(envptr) for void, fun(envptr, T) otherwise.
func kType(ret Type) fir.Type {
	if ret == TVoid {
		return fir.TyFun(fir.TyPtr)
	}
	return fir.TyFun(fir.TyPtr, firType(ret))
}

// lower converts an analyzed program to FIR.
func lower(prog *Program, sm *sema) (*fir.Program, error) {
	l := &lowerer{sm: sm}
	for _, fn := range prog.Funcs {
		fl := &fnLower{l: l, fn: fn}
		if err := fl.lower(); err != nil {
			return nil, err
		}
	}
	// $halt(env, code) terminates the process; $start invokes main with a
	// null environment and $halt as its continuation.
	l.emit(fir.Fn("$halt", fir.Ps("env", fir.TyPtr, "code", fir.TyInt), fir.Halt{Code: fir.V("code")}))
	l.emit(fir.Fn("$start", nil,
		fir.Let{Dst: "$null", DstType: fir.TyPtr, Op: fir.OpPtrNull,
			Body: fir.Call{Fn: fir.FunLit{Name: "main"}, Args: []fir.Atom{fir.V("$null"), fir.FunLit{Name: "$halt"}}}}))
	return fir.NewProgram("$start", l.out...), nil
}

// fnLower lowers one source function.
type fnLower struct {
	l  *lowerer
	fn *FuncDecl
}

// loopCtx carries the targets of break and continue: materialized FIR
// functions whose parameters are the bindings captured at loop entry.
type loopCtx struct {
	breakFn  string
	contFn   string
	captured []string
}

func (f *fnLower) lower() error {
	var params []fir.Param
	e0 := &env{}
	for _, p := range f.fn.Params {
		firName := f.l.fresh(p.Name)
		params = append(params, fir.Param{Name: firName, Type: firType(p.Type)})
		e0.declare(p.Name, p.Type, firName)
	}
	kenvName := f.l.fresh("kenv")
	kName := f.l.fresh("k")
	params = append(params,
		fir.Param{Name: kenvName, Type: fir.TyPtr},
		fir.Param{Name: kName, Type: kType(f.fn.Ret)})
	e0.declareTyped(kEnvVar, fir.TyPtr, kenvName)
	e0.declareTyped(kFunVar, kType(f.fn.Ret), kName)

	body, err := f.stmts(f.fn.Body, e0, nil, func(e *env) fir.Expr {
		return f.emitReturn(e, nil)
	})
	if err != nil {
		return err
	}
	f.l.emit(fir.Fn(f.fn.Name, params, body))
	return nil
}

// emitReturn calls the function's continuation with val (nil = implicit
// zero-value/void return).
func (f *fnLower) emitReturn(e *env, val fir.Atom) fir.Expr {
	kenv := e.find(kEnvVar)
	k := e.find(kFunVar)
	if f.fn.Ret == TVoid {
		return fir.Call{Fn: fir.V(k.fir), Args: []fir.Atom{fir.V(kenv.fir)}}
	}
	if val != nil {
		return fir.Call{Fn: fir.V(k.fir), Args: []fir.Atom{fir.V(kenv.fir), val}}
	}
	switch f.fn.Ret {
	case TFloat:
		return fir.Call{Fn: fir.V(k.fir), Args: []fir.Atom{fir.V(kenv.fir), fir.F(0)}}
	case TPtr, TFptr:
		z := f.l.fresh("z")
		return fir.Let{Dst: z, DstType: fir.TyPtr, Op: fir.OpPtrNull,
			Body: fir.Call{Fn: fir.V(k.fir), Args: []fir.Atom{fir.V(kenv.fir), fir.V(z)}}}
	default:
		return fir.Call{Fn: fir.V(k.fir), Args: []fir.Atom{fir.V(kenv.fir), fir.I(0)}}
	}
}

// materialize creates a top-level FIR function over env's bindings (after
// optional leading params) whose body is produced by gen with the bindings
// rebound to the new parameters. It returns the function name.
func (f *fnLower) materialize(prefix string, e *env, lead []fir.Param, gen func(inner *env) fir.Expr) string {
	name := f.l.fresh(prefix)
	inner := e.clone()
	params := append(make([]fir.Param, 0, len(lead)+len(inner.vars)), lead...)
	for i := range inner.vars {
		pn := f.l.fresh(inner.vars[i].name)
		inner.vars[i].fir = pn
		params = append(params, fir.Param{Name: pn, Type: inner.vars[i].ftype})
	}
	f.l.emit(fir.Fn(name, params, gen(inner)))
	return name
}

// join materializes k over env and returns a call generator.
func (f *fnLower) join(e *env, k func(*env) fir.Expr) func(*env) fir.Expr {
	n := len(e.vars)
	name := f.materialize("join", e, nil, k)
	return func(at *env) fir.Expr {
		return fir.Call{Fn: fir.FunLit{Name: name}, Args: at.atoms()[:n]}
	}
}

// callCaptured emits a call to a materialized function with the current
// values of the captured binding names.
func (f *fnLower) callCaptured(fnName string, captured []string, e *env) (fir.Expr, error) {
	args := make([]fir.Atom, len(captured))
	for i, n := range captured {
		b := e.find(n)
		if b == nil {
			return nil, fmt.Errorf("mojc: internal: captured variable %q vanished", n)
		}
		args[i] = fir.V(b.fir)
	}
	return fir.Call{Fn: fir.FunLit{Name: fnName}, Args: args}, nil
}

// stmts compiles a statement list; k generates everything that follows.
func (f *fnLower) stmts(list []Stmt, e *env, lp *loopCtx, k func(*env) fir.Expr) (fir.Expr, error) {
	if len(list) == 0 {
		return k(e), nil
	}
	head, rest := list[0], list[1:]
	return f.stmt(head, e, lp, func(e2 *env) fir.Expr {
		out, err := f.stmts(rest, e2, lp, k)
		if err != nil {
			panic(lowerPanic{err})
		}
		return out
	})
}

// lowerPanic tunnels errors out of generator closures.
type lowerPanic struct{ err error }

func (f *fnLower) stmt(st Stmt, e *env, lp *loopCtx, k func(*env) fir.Expr) (out fir.Expr, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(lowerPanic); ok {
				out, err = nil, pe.err
				return
			}
			panic(r)
		}
	}()

	switch st := st.(type) {
	case *DeclStmt:
		if call, ok := st.Init.(*Call); ok && call.Name == "speculate" {
			dst := f.l.fresh(st.Name)
			e.declare(st.Name, st.Type, dst)
			// Bind x to 0 before entering the speculation so the saved
			// continuation arguments are well-formed; every entry path
			// rebinds it.
			return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpMove, Args: []fir.Atom{fir.I(0)},
				Body: f.lowerSpeculate(st.Name, e, k)}, nil
		}
		if st.Init == nil {
			dst := f.l.fresh(st.Name)
			e.declare(st.Name, st.Type, dst)
			switch st.Type {
			case TFloat:
				return fir.Let{Dst: dst, DstType: fir.TyFloat, Op: fir.OpMove, Args: []fir.Atom{fir.F(0)}, Body: k(e)}, nil
			case TPtr, TFptr:
				return fir.Let{Dst: dst, DstType: fir.TyPtr, Op: fir.OpPtrNull, Body: k(e)}, nil
			default:
				return fir.Let{Dst: dst, DstType: fir.TyInt, Op: fir.OpMove, Args: []fir.Atom{fir.I(0)}, Body: k(e)}, nil
			}
		}
		return f.expr(st.Init, e, func(a fir.Atom) fir.Expr {
			dst := f.l.fresh(st.Name)
			e.declare(st.Name, st.Type, dst)
			return fir.Let{Dst: dst, DstType: firType(st.Type), Op: fir.OpMove, Args: []fir.Atom{a}, Body: k(e)}
		}), nil

	case *AssignStmt:
		if call, ok := st.Val.(*Call); ok && call.Name == "speculate" && st.Op == "" {
			return f.lowerSpeculate(st.Name, e, k), nil
		}
		vt := e.find(st.Name).typ
		return f.expr(st.Val, e, func(a fir.Atom) fir.Expr {
			dst := f.l.fresh(st.Name)
			b := e.find(st.Name)
			if st.Op == "" {
				b.fir = dst
				return fir.Let{Dst: dst, DstType: firType(vt), Op: fir.OpMove, Args: []fir.Atom{a}, Body: k(e)}
			}
			old := fir.V(b.fir)
			b.fir = dst
			return fir.Let{Dst: dst, DstType: firType(vt), Op: arithOp(st.Op, vt), Args: []fir.Atom{old, a}, Body: k(e)}
		}), nil

	case *StoreStmt:
		return f.expr(st.Base, e, func(ba fir.Atom) fir.Expr {
			return f.protect(e, fir.TyPtr, ba, func(getB func() fir.Atom) fir.Expr {
				return f.expr(st.Idx, e, func(ia fir.Atom) fir.Expr {
					return f.protect(e, fir.TyInt, ia, func(getI func() fir.Atom) fir.Expr {
						return f.expr(st.Val, e, func(va fir.Atom) fir.Expr {
							ba, ia := getB(), getI()
							u := f.l.fresh("u")
							if st.Op == "" {
								return fir.Let{Dst: u, DstType: fir.TyUnit, Op: fir.OpStore, Args: []fir.Atom{ba, ia, va}, Body: k(e)}
							}
							elemT := f.l.sm.types[st.Base].elem()
							old := f.l.fresh("old")
							nv := f.l.fresh("nv")
							return fir.Let{Dst: old, DstType: firType(elemT), Op: fir.OpLoad, Args: []fir.Atom{ba, ia},
								Body: fir.Let{Dst: nv, DstType: firType(elemT), Op: arithOp(st.Op, elemT), Args: []fir.Atom{fir.V(old), va},
									Body: fir.Let{Dst: u, DstType: fir.TyUnit, Op: fir.OpStore, Args: []fir.Atom{ba, ia, fir.V(nv)}, Body: k(e)}}}
						})
					})
				})
			})
		}), nil

	case *IfStmt:
		jcall := f.join(e, k)
		return f.expr(st.Cond, e, func(ca fir.Atom) fir.Expr {
			thenEnv := e.clone()
			m := thenEnv.mark()
			thenCode, err := f.stmts(st.Then, thenEnv, lp, func(e2 *env) fir.Expr {
				e2.release(m)
				return jcall(e2)
			})
			if err != nil {
				panic(lowerPanic{err})
			}
			elseEnv := e.clone()
			m2 := elseEnv.mark()
			elseCode, err := f.stmts(st.Else, elseEnv, lp, func(e2 *env) fir.Expr {
				e2.release(m2)
				return jcall(e2)
			})
			if err != nil {
				panic(lowerPanic{err})
			}
			return fir.If{Cond: ca, Then: thenCode, Else: elseCode}
		}), nil

	case *WhileStmt:
		return f.lowerLoop(st.Cond, nil, st.Body, e, k)

	case *ForStmt:
		m := e.mark()
		inner := e.clone()
		after := func(e3 *env) fir.Expr {
			e3.release(m)
			return k(e3)
		}
		if st.Init != nil {
			return f.stmt(st.Init, inner, nil, func(e2 *env) fir.Expr {
				out, err := f.lowerLoop(st.Cond, st.Post, st.Body, e2, after)
				if err != nil {
					panic(lowerPanic{err})
				}
				return out
			})
		}
		return f.lowerLoop(st.Cond, st.Post, st.Body, inner, after)

	case *ReturnStmt:
		if st.Val == nil {
			return f.emitReturn(e, nil), nil
		}
		return f.expr(st.Val, e, func(a fir.Atom) fir.Expr {
			return f.emitReturn(e, a)
		}), nil

	case *BreakStmt:
		if lp == nil {
			return nil, errf(st.P.Line, st.P.Col, "break outside loop")
		}
		return f.callCaptured(lp.breakFn, lp.captured, e)

	case *ContinueStmt:
		if lp == nil {
			return nil, errf(st.P.Line, st.P.Col, "continue outside loop")
		}
		return f.callCaptured(lp.contFn, lp.captured, e)

	case *ExprStmt:
		call := st.X.(*Call)
		switch call.Name {
		case "abort", "retry":
			c := int64(cAbort)
			if call.Name == "retry" {
				c = cRetry
			}
			return f.expr(call.Args[0], e, func(ida fir.Atom) fir.Expr {
				ord := f.l.fresh("ord")
				// Code after abort/retry is unreachable: rollback transfers
				// control to the speculation's continuation.
				return fir.Extern{Dst: ord, DstType: fir.TyInt, Name: "spec_ordinal", Args: []fir.Atom{ida},
					Body: fir.Rollback{Level: fir.V(ord), C: fir.I(c)}}
			}), nil

		case "commit":
			return f.expr(call.Args[0], e, func(ida fir.Atom) fir.Expr {
				ord := f.l.fresh("ord")
				name := f.materialize("commitk", e, nil, k)
				return fir.Extern{Dst: ord, DstType: fir.TyInt, Name: "spec_ordinal", Args: []fir.Atom{ida},
					Body: fir.Commit{Level: fir.V(ord), Fn: fir.FunLit{Name: name}, Args: e.atoms()}}
			}), nil

		case "migrate":
			return f.expr(call.Args[0], e, func(ta fir.Atom) fir.Expr {
				name := f.materialize("migk", e, nil, k)
				f.l.migLabel++
				return fir.Migrate{Label: f.l.migLabel, Target: ta, TargetOff: fir.I(0),
					Fn: fir.FunLit{Name: name}, Args: e.atoms()}
			}), nil

		default:
			// Ordinary call for effect; discard the result.
			return f.expr(st.X, e, func(fir.Atom) fir.Expr { return k(e) }), nil
		}

	case *BlockStmt:
		m := e.mark()
		return f.stmts(st.Body, e, lp, func(e2 *env) fir.Expr {
			e2.release(m)
			return k(e2)
		})

	default:
		return nil, fmt.Errorf("mojc: cannot lower %T", st)
	}
}

// lowerLoop materializes a while/for loop as mutually recursive FIR
// functions: $loop evaluates the condition and either runs the body or
// exits to $brk; continue jumps to $cont, which runs the post statement
// and re-enters $loop.
func (f *fnLower) lowerLoop(cond Expr, post Stmt, body []Stmt, e *env, k func(*env) fir.Expr) (fir.Expr, error) {
	// Names are created first so the bodies can reference each other.
	loopName := f.l.fresh("loop")

	captured := make([]string, len(e.vars))
	for i, b := range e.vars {
		captured[i] = b.name
	}

	brkName := f.materialize("brk", e, nil, k)

	contName := f.materialize("cont", e, nil, func(inner *env) fir.Expr {
		if post == nil {
			return fir.Call{Fn: fir.FunLit{Name: loopName}, Args: inner.atoms()}
		}
		out, err := f.stmt(post, inner, nil, func(e2 *env) fir.Expr {
			out2, err := f.callCaptured(loopName, captured, e2)
			if err != nil {
				panic(lowerPanic{err})
			}
			return out2
		})
		if err != nil {
			panic(lowerPanic{err})
		}
		return out
	})

	lp := &loopCtx{breakFn: brkName, contFn: contName, captured: captured}

	// $loop must be emitted with exactly the fresh name allocated above;
	// materialize allocates its own name, so build it manually.
	inner := e.clone()
	params := make([]fir.Param, len(inner.vars))
	for i := range inner.vars {
		pn := f.l.fresh(inner.vars[i].name)
		inner.vars[i].fir = pn
		params[i] = fir.Param{Name: pn, Type: inner.vars[i].ftype}
	}
	emitBody := func(e2 *env) (fir.Expr, error) {
		m := e2.mark()
		return f.stmts(body, e2, lp, func(e3 *env) fir.Expr {
			e3.release(m)
			out, err := f.callCaptured(contName, captured, e3)
			if err != nil {
				panic(lowerPanic{err})
			}
			return out
		})
	}
	var loopBody fir.Expr
	var err error
	if cond == nil {
		loopBody, err = emitBody(inner)
	} else {
		loopBody = f.expr(cond, inner, func(ca fir.Atom) fir.Expr {
			bodyEnv := inner.clone()
			bodyCode, berr := emitBody(bodyEnv)
			if berr != nil {
				panic(lowerPanic{berr})
			}
			exit, berr := f.callCaptured(brkName, captured, inner)
			if berr != nil {
				panic(lowerPanic{berr})
			}
			return fir.If{Cond: ca, Then: bodyCode, Else: exit}
		})
	}
	if err != nil {
		return nil, err
	}
	f.l.emit(fir.Fn(loopName, params, loopBody))

	return fir.Call{Fn: fir.FunLit{Name: loopName}, Args: e.atoms()}, nil
}

// lowerSpeculate compiles `x = speculate();` into the FIR speculate
// pseudo-instruction (§4.3.1). The saved continuation receives (c, live…);
// on c==0 (first entry) and c==cRetry (retry) x binds to the positive
// stable specid; otherwise the re-entered empty level is committed and x
// binds to -c (Figure 1's abort path).
func (f *fnLower) lowerSpeculate(varName string, e *env, k func(*env) fir.Expr) fir.Expr {
	jcall := f.join(e, k)

	// Abort path: after rollback re-entered the level, commit it (empty)
	// and continue with x = -c.
	abortName := f.materialize("specabort", e, []fir.Param{{Name: "$c", Type: fir.TyInt}},
		func(inner *env) fir.Expr {
			xa := f.l.fresh(varName)
			inner.find(varName).fir = xa
			return fir.Let{Dst: xa, DstType: fir.TyInt, Op: fir.OpSub, Args: []fir.Atom{fir.I(0), fir.V("$c")},
				Body: jcall(inner)}
		})

	contName := f.materialize("speck", e, []fir.Param{{Name: "$c", Type: fir.TyInt}},
		func(inner *env) fir.Expr {
			first := f.l.fresh("isfirst")
			retr := f.l.fresh("isretry")
			either := f.l.fresh("run")
			xv := f.l.fresh(varName)
			runEnv := inner.clone()
			runEnv.find(varName).fir = xv
			depth := f.l.fresh("depth")
			return fir.Let{Dst: first, DstType: fir.TyInt, Op: fir.OpEq, Args: []fir.Atom{fir.V("$c"), fir.I(0)},
				Body: fir.Let{Dst: retr, DstType: fir.TyInt, Op: fir.OpEq, Args: []fir.Atom{fir.V("$c"), fir.I(cRetry)},
					Body: fir.Let{Dst: either, DstType: fir.TyInt, Op: fir.OpOr, Args: []fir.Atom{fir.V(first), fir.V(retr)},
						Body: fir.If{
							Cond: fir.V(either),
							Then: fir.Extern{Dst: xv, DstType: fir.TyInt, Name: "spec_id",
								Body: jcall(runEnv)},
							Else: fir.Extern{Dst: depth, DstType: fir.TyInt, Name: "spec_depth",
								Body: fir.Commit{Level: fir.V(depth), Fn: fir.FunLit{Name: abortName},
									Args: append([]fir.Atom{fir.V("$c")}, inner.atoms()...)}},
						}}}}
		})

	return fir.Speculate{Fn: fir.FunLit{Name: contName}, Args: e.atoms()}
}

func arithOp(op string, t Type) fir.Op {
	if t == TFloat {
		switch op {
		case "+":
			return fir.OpFAdd
		case "-":
			return fir.OpFSub
		case "*":
			return fir.OpFMul
		case "/":
			return fir.OpFDiv
		}
	}
	switch op {
	case "+":
		return fir.OpAdd
	case "-":
		return fir.OpSub
	case "*":
		return fir.OpMul
	case "/":
		return fir.OpDiv
	case "%":
		return fir.OpMod
	}
	return fir.OpMove
}
