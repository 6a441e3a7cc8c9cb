package fir

import (
	"math"
	"slices"
)

// Optimize is the FIR mid-end. Every front end ends in
// lower → Optimize → Check, so the program the engines run, the program
// `mcc -emit fir` prints and the program a migration image carries are one
// and the same. The passes, in the order they run:
//
//   - Simplify (simplify.go; first over every function, last over those
//     the later passes rewrote). One walk with a scoped
//     environment and an undo log: constant folding, copy propagation of
//     moves, algebraic identities (x+0, x*1, b≠0 for a 0/1 value b),
//     local common-subexpression elimination, branch folding — a literal
//     condition, or a condition already decided by an enclosing If — and
//     arm merging: an If whose arms call the same function with the same
//     arguments, except where the then arm passes 1 and the else arm 0
//     for a 0/1 condition, becomes that one call. Dead pure bindings are
//     dropped on the way back up. Counters: Folded, CopiesProp, CSE,
//     IfsFolded, IfsMerged, DeadLets.
//     Safety: heap operators (alloc/load/store/len) and externs are never
//     folded, merged or dropped; div/mod/shl/shr fold only over literals
//     that cannot trap and are never dropped. CSE reuses a binding only
//     where it dominates the reuse (a binding in one If arm is invisible in
//     the other), so an operator that could trap has already run — and
//     trapped — before its duplicate.
//   - Inline tiny functions (inline.go). A function whose body is at most
//     four pure, non-trapping bindings and one If, ending only in direct
//     calls or halts — the front end's branch joins and loop continuations
//     — is substituted at its direct call sites, then simplified there, so
//     literal arguments fold its If (jump threading). Such a body cannot
//     fail, so a RuntimeError still names the function that failed. A
//     callee is inlined only when the program's encoded size does not grow
//     (images carry the program); a loop header and a callee that calls
//     itself never are. Functions nothing reaches any more are deleted.
//     Counters: Inlined, DeadFuncs.
//   - Hoist loop invariants (hoist.go). Loops are tail-call cycles, found
//     as strongly connected regions of the direct-call graph; only
//     innermost loops are hoisted from. A parameter every call inside the
//     region passes through unchanged is invariant; a pure binding over
//     invariants and literals becomes a new parameter of every function in
//     the region, computed once at each call that enters it. The new
//     parameters go at the region's shortest arity in every member, so a
//     call inside the loop passes them, and the members' shared prefix, in
//     the slots they already hold. div/mod/shl/shr hoist only with a
//     literal operand that cannot trap, so a trap stays where it was.
//     Regions containing a function that escapes as a value (speculate/
//     commit/migrate continuations, closures) are left alone: the runtime
//     may enter those with values of its own. Hoisting spends only the
//     bytes the passes before it saved. Counter: Hoisted.
//   - Remove dead parameters (params.go) of functions used only as direct
//     call targets — never the entry, never main, never a function that
//     escapes as a value. A parameter is dead when it is only passed on
//     to dead parameters; the last simplify drops its arguments and what
//     computed only them. Counter: DeadParams.
//
// Optimize never grows the program's encoding (the bound is part of the
// test suite) and is deterministic: every worker compiling the same
// source gets byte-identical FIR.

// OptStats reports what Optimize did.
type OptStats struct {
	Folded     int // operator applications replaced by a literal or an operand
	CopiesProp int // move bindings propagated away
	CSE        int // bindings replaced by an identical dominating binding
	DeadLets   int // pure bindings removed
	IfsFolded  int // branches removed because the condition was known
	IfsMerged  int // branches whose two arms became one call
	Inlined    int // direct calls replaced by the callee's body
	DeadFuncs  int // functions no longer reachable, removed
	Hoisted    int // loop-invariant bindings turned into loop parameters
	DeadParams int // parameters removed from known-call-only functions
}

// maxInlineRounds bounds the inlining rounds: each round substitutes one
// level of the call chain (a body inlined this round is not searched for
// further sites until the next).
const maxInlineRounds = 6

// Optimize rewrites p in place and returns what each pass did.
func Optimize(p *Program) OptStats {
	var st OptStats
	budget := programSize(p)
	s := newSimplifier(p, &st, budget)
	s.run(nil)
	skip := s.skip
	size := budget + s.growth()
	var headers headerSet
	for round := 0; round < maxInlineRounds; round++ {
		plan := planInlining(p, skip, &headers)
		if plan == nil {
			break
		}
		before, funcs, sizeBefore := st, slices.Clone(p.Funcs), size
		s.run(plan)
		dead, deadBytes := removeDeadFuncs(p)
		// Only the walked bodies and the deleted functions changed size.
		size += s.growth() - deadBytes + uvarintLen(uint64(len(p.Funcs))) - uvarintLen(uint64(len(funcs)))
		if size > budget {
			// The per-callee estimate missed: the round's bodies, and the
			// functions they call, go back.
			s.revert()
			p.Funcs = funcs
			p.reindex()
			st, size = before, sizeBefore
			break
		}
		if st.DeadFuncs += dead; s.inlinedThisRun == 0 {
			break
		}
	}
	// The last walk cleans up after hoisting and drops the dead
	// parameters' arguments (and what fed them): only the functions
	// those two passes touched need it.
	touched := make(map[*Function]bool)
	hoistLoops(p, &st, budget-size, skip, touched)
	s.dropArgs, st.DeadParams = removeDeadParams(p, skip)
	for _, f := range p.Funcs {
		if !touched[f] && callsAny(f.Body, s.dropArgs) {
			touched[f] = true
		}
	}
	if len(touched) > 0 {
		s.only = touched
		s.run(nil)
	}
	return st
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

// scalarOp reports whether op is a pure integer/float operator: the
// operators CSE and hoisting consider. Pointer and heap operators are not.
func scalarOp(op Op) bool { return op <= OpFloatToInt }

// safeOp reports whether evaluating op over args can never trap, so the
// binding may be computed earlier than written (inlined or hoisted).
func safeOp(op Op, args []Atom) bool {
	switch op {
	case OpDiv, OpMod:
		d, ok := args[1].(IntLit)
		return ok && d.V != 0
	case OpShl, OpShr:
		d, ok := args[1].(IntLit)
		return ok && d.V >= 0 && d.V <= 63
	}
	return scalarOp(op) || op == OpMove
}

// boolOp reports whether op always yields 0 or 1.
func boolOp(op Op) bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpNot,
		OpFEq, OpFNe, OpFLt, OpFLe, OpFGt, OpFGe, OpPtrEq, OpPtrIsNil:
		return true
	}
	return false
}

// sameAtom reports whether two atoms denote the same value syntactically.
func sameAtom(a, b Atom) bool {
	switch x := a.(type) {
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case IntLit:
		y, ok := b.(IntLit)
		return ok && x.V == y.V
	case FloatLit:
		y, ok := b.(FloatLit)
		return ok && math.Float64bits(x.V) == math.Float64bits(y.V)
	case FunLit:
		y, ok := b.(FunLit)
		return ok && x.Name == y.Name
	case UnitLit:
		_, ok := b.(UnitLit)
		return ok
	}
	return false
}

// callees visits every function-valued atom of e: direct reports whether
// the atom is the callee of a tail call (a known call) rather than a value
// that escapes into the runtime, a closure or another function.
func callees(e Expr, visit func(name string, direct bool)) {
	atom := func(a Atom, direct bool) {
		if f, ok := a.(FunLit); ok {
			visit(f.Name, direct)
		}
	}
	atoms := func(as []Atom) {
		for _, a := range as {
			atom(a, false)
		}
	}
	for {
		switch x := e.(type) {
		case Let:
			atoms(x.Args)
			e = x.Body
			continue
		case Extern:
			atoms(x.Args)
			e = x.Body
			continue
		case If:
			callees(x.Then, visit)
			e = x.Else
			continue
		case Call:
			atom(x.Fn, true)
			atoms(x.Args)
		case Migrate:
			atom(x.Fn, false)
			atoms(x.Args)
		case Speculate:
			atom(x.Fn, false)
			atoms(x.Args)
		case Commit:
			atom(x.Fn, false)
			atoms(x.Args)
		}
		return
	}
}

// escaping returns, per function index, whether the function is used as a
// value anywhere (and so may be entered by the runtime or an indirect call
// with arguments the optimiser cannot see).
func escaping(p *Program) []bool {
	esc := make([]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		callees(f.Body, func(name string, direct bool) {
			if !direct {
				if _, i := p.Lookup(name); i >= 0 {
					esc[i] = true
				}
			}
		})
	}
	return esc
}

// removeDeadFuncs deletes functions the entry no longer reaches through
// any function reference and returns how many it deleted and their
// encoded size.
func removeDeadFuncs(p *Program) (dead, bytes int) {
	_, entry := p.Lookup(p.Entry)
	if entry < 0 {
		return 0, 0
	}
	live := make([]bool, len(p.Funcs))
	live[entry] = true
	work := []int{entry}
	for len(work) > 0 {
		f := p.Funcs[work[len(work)-1]]
		work = work[:len(work)-1]
		callees(f.Body, func(name string, _ bool) {
			if _, i := p.Lookup(name); i >= 0 && !live[i] {
				live[i] = true
				work = append(work, i)
			}
		})
	}
	kept := p.Funcs[:0]
	for i, f := range p.Funcs {
		if live[i] {
			kept = append(kept, f)
		} else {
			bytes += funcSize(f)
		}
	}
	dead = len(p.Funcs) - len(kept)
	if dead > 0 {
		clear(p.Funcs[len(kept):])
		p.Funcs = kept
		p.reindex()
	}
	return dead, bytes
}

// The size model below mirrors EncodeProgram byte for byte without
// encoding, so passes can keep the encoded program from growing.

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	u := uint64(v) << 1
	if v < 0 {
		u = ^u
	}
	return uvarintLen(u)
}

func strSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func typeSize(t Type) int {
	n := 1
	if t.Kind == KindFun {
		n += uvarintLen(uint64(len(t.Params)))
		for _, p := range t.Params {
			n += typeSize(p)
		}
	}
	return n
}

func atomSize(a Atom) int {
	switch x := a.(type) {
	case Var:
		return 1 + strSize(x.Name)
	case IntLit:
		return 1 + varintLen(x.V)
	case FloatLit:
		return 1 + 8
	case FunLit:
		return 1 + strSize(x.Name)
	}
	return 1
}

func atomsSize(as []Atom) int {
	n := uvarintLen(uint64(len(as)))
	for _, a := range as {
		n += atomSize(a)
	}
	return n
}

func exprSize(e Expr) int {
	n := 0
	for {
		switch x := e.(type) {
		case Let:
			n += 1 + strSize(x.Dst) + typeSize(x.DstType) + 1 + atomsSize(x.Args)
			e = x.Body
			continue
		case Extern:
			n += 1 + strSize(x.Dst) + typeSize(x.DstType) + strSize(x.Name) + atomsSize(x.Args)
			e = x.Body
			continue
		case If:
			n += 1 + atomSize(x.Cond) + exprSize(x.Then)
			e = x.Else
			continue
		case Call:
			return n + 1 + atomSize(x.Fn) + atomsSize(x.Args)
		case Migrate:
			return n + 1 + uvarintLen(uint64(x.Label)) + atomSize(x.Target) + atomSize(x.TargetOff) + atomSize(x.Fn) + atomsSize(x.Args)
		case Speculate:
			return n + 1 + atomSize(x.Fn) + atomsSize(x.Args)
		case Commit:
			return n + 1 + atomSize(x.Level) + atomSize(x.Fn) + atomsSize(x.Args)
		case Rollback:
			return n + 1 + atomSize(x.Level) + atomSize(x.C)
		case Halt:
			return n + 1 + atomSize(x.Code)
		}
		return n + 1 + atomSize(IntLit{V: 255})
	}
}

func paramSize(p Param) int { return strSize(p.Name) + typeSize(p.Type) }

func funcSize(f *Function) int {
	n := strSize(f.Name) + uvarintLen(uint64(len(f.Params)))
	for _, p := range f.Params {
		n += paramSize(p)
	}
	return n + exprSize(f.Body)
}

// programSize is len(EncodeProgram(p)), computed without encoding.
func programSize(p *Program) int {
	n := len(firMagic) + 1 + strSize(p.Entry) + uvarintLen(uint64(len(p.Funcs))) + 4
	for _, f := range p.Funcs {
		n += funcSize(f)
	}
	return n
}
