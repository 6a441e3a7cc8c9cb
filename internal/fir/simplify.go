package fir

import "math"

// The simplifier is the local pass: one walk per function. Each binding
// in scope gets an index when it is bound; facts, use counts and
// available expressions are kept by index, and every change is logged so
// an If arm's bindings are undone before the other arm instead of the
// environment being copied per branch. Names are interned once per
// Optimize, so the only string-keyed work is one map lookup per binder
// and per operand.

// varFact is what the simplifier knows about one binding.
type varFact struct {
	sub    Atom  // replacement (copy/constant propagation); nil: the name itself
	subIdx int32 // the binding sub names, when it is a variable in scope; else -1
	known  Atom  // literal value decided by an enclosing If
	eqOf   int32 // for t = eq(x, lit): x's binding (x = lit where t holds); else -1
	eqLit  int64 // ... and lit
	isBool bool  // the value is 0 or 1
}

// opaque is the fact for a value nothing is known about: a parameter or
// an extern's result.
var opaque = varFact{subIdx: -1, eqOf: -1}

// atomKey is an operand as a comparable map-key component: a binding index
// or a literal's bits.
type atomKey struct {
	tag  byte // atomVar, atomInt, atomFloat; 0 for an absent operand
	bits uint64
}

// cseKey identifies a pure operator application.
type cseKey struct {
	op   Op
	a, b atomKey
}

// factUndo restores a fact an If arm changed; cseUndo an available
// expression.
type factUndo struct {
	idx  int32
	fact varFact
}

type cseUndo struct {
	key  cseKey
	had  bool
	prev int32
}

// scope marks the undo logs at a scope's opening.
type scope struct{ bound, facts, cse int }

type simplifier struct {
	prog *Program
	st   *OptStats

	ids       map[string]int32 // every name seen → its id
	inScope   []int32          // name id → the binding in scope, or -1
	names     []string         // binding → name
	nameOf    []int32          // binding → name id
	outer     []int32          // binding → the binding its name had before, or -1
	facts     []varFact        // binding → fact
	uses      []int32          // binding → uses in the result so far
	bound     []int32          // bindings in scope, in binding order
	factsUndo []factUndo
	cse       map[cseKey]int32 // available expressions → the binding holding them
	cseUndo   []cseUndo

	fn             *Function
	skip           map[*Function]bool   // functions that rebind a name in scope
	only           map[*Function]bool   // when set, the only functions run walks
	shadowed       bool                 // the current function does
	plan           map[string]*Function // callees to inline this run
	dropArgs       map[string][]bool    // dead parameter positions, per callee
	inlining       bool                 // walking an inlined body
	inlinedThisRun int
	prev           []prevBody // bodies the last run replaced
}

type prevBody struct {
	fn   *Function
	body Expr
}

// revert restores the bodies the last run replaced.
func (s *simplifier) revert() {
	for i := len(s.prev) - 1; i >= 0; i-- {
		s.prev[i].fn.Body = s.prev[i].body
	}
	s.prev = s.prev[:0]
}

// growth is how many encoded bytes the last run added to the bodies it
// replaced.
func (s *simplifier) growth() int {
	n := 0
	for _, pb := range s.prev {
		n += exprSize(pb.fn.Body) - exprSize(pb.body)
	}
	return n
}

// newSimplifier returns a simplifier for p, whose encoding is size bytes:
// the lowered programs spend about 30 bytes per name, and sizing the
// intern table up front spares it every rehash on the way there.
func newSimplifier(p *Program, st *OptStats, size int) *simplifier {
	return &simplifier{
		prog: p,
		st:   st,
		ids:  make(map[string]int32, size/24),
		cse:  make(map[cseKey]int32),
	}
}

// run simplifies every function, inlining the callees in plan at their
// direct call sites. With a plan, only functions calling a planned callee
// are walked (the rest were simplified already and cannot change). Each
// replaced body is kept in s.prev, for growth and revert.
func (s *simplifier) run(plan map[string]*Function) {
	s.plan, s.inlinedThisRun, s.prev = plan, 0, s.prev[:0]
	for _, f := range s.prog.Funcs {
		if s.skip[f] || plan != nil && !callsAny(f.Body, plan) || s.only != nil && !s.only[f] {
			continue
		}
		s.function(f)
	}
	s.plan = nil
}

func callsAny[V any](e Expr, plan map[string]V) bool {
	found := false
	callees(e, func(name string, direct bool) {
		if _, in := plan[name]; direct && in {
			found = true
		}
	})
	return found
}

func (s *simplifier) function(f *Function) {
	s.fn, s.shadowed = f, false
	s.names, s.nameOf, s.outer = s.names[:0], s.nameOf[:0], s.outer[:0]
	s.facts, s.uses = s.facts[:0], s.uses[:0]
	for _, p := range f.Params {
		s.bind(p.Name, opaque)
	}
	stats := *s.st
	body, changed := s.expr(f.Body)
	// The scopes and the CSE map are emptied entry by entry: clearing a map
	// costs its capacity, which one large function would otherwise charge
	// to every small one.
	s.undoTo(scope{})
	if s.shadowed {
		// Legal FIR the front ends never emit: a name bound twice on one
		// path. Hoisting and dead-parameter removal resolve names without
		// scopes, so no pass touches the function.
		*s.st = stats
		if s.skip == nil {
			s.skip = make(map[*Function]bool)
		}
		s.skip[f] = true
		return
	}
	if changed {
		s.prev = append(s.prev, prevBody{f, f.Body})
		f.Body = body
	}
}

// bind brings a new name into scope and returns its binding, noting when
// the name was in scope already.
func (s *simplifier) bind(name string, f varFact) int32 {
	id, ok := s.ids[name]
	if !ok {
		id = int32(len(s.inScope))
		s.ids[name] = id
		s.inScope = append(s.inScope, -1)
	}
	idx := int32(len(s.facts))
	outer := s.inScope[id]
	s.shadowed = s.shadowed || outer >= 0
	s.inScope[id] = idx
	s.names = append(s.names, name)
	s.nameOf = append(s.nameOf, id)
	s.outer = append(s.outer, outer)
	s.facts = append(s.facts, f)
	s.uses = append(s.uses, 0)
	s.bound = append(s.bound, idx)
	return idx
}

// inScopeName reports whether name is in scope.
func (s *simplifier) inScopeName(name string) bool {
	id, ok := s.ids[name]
	return ok && s.inScope[id] >= 0
}

// setFact replaces a binding's fact until the current scope closes.
func (s *simplifier) setFact(idx int32, f varFact) {
	s.factsUndo = append(s.factsUndo, factUndo{idx, s.facts[idx]})
	s.facts[idx] = f
}

func (s *simplifier) setCSE(k cseKey, idx int32) {
	prev, had := s.cse[k]
	s.cseUndo = append(s.cseUndo, cseUndo{key: k, had: had, prev: prev})
	s.cse[k] = idx
}

func (s *simplifier) mark() scope {
	return scope{len(s.bound), len(s.factsUndo), len(s.cseUndo)}
}

// undoTo closes every scope opened since mark.
func (s *simplifier) undoTo(mark scope) {
	for i := len(s.factsUndo) - 1; i >= mark.facts; i-- {
		u := s.factsUndo[i]
		s.facts[u.idx] = u.fact
	}
	s.factsUndo = s.factsUndo[:mark.facts]
	for i := len(s.bound) - 1; i >= mark.bound; i-- {
		idx := s.bound[i]
		s.inScope[s.nameOf[idx]] = s.outer[idx]
	}
	s.bound = s.bound[:mark.bound]
	for i := len(s.cseUndo) - 1; i >= mark.cse; i-- {
		if u := s.cseUndo[i]; u.had {
			s.cse[u.key] = u.prev
		} else {
			delete(s.cse, u.key)
		}
	}
	s.cseUndo = s.cseUndo[:mark.cse]
}

// lookup returns the binding a names, or -1.
func (s *simplifier) lookup(a Atom) int32 {
	if v, ok := a.(Var); ok {
		if id, ok := s.ids[v.Name]; ok {
			return s.inScope[id]
		}
	}
	return -1
}

// subst resolves a through copy/constant propagation and returns the
// binding the result names (-1 for a literal or a free name). Values
// decided by an enclosing If replace operator operands and conditions
// (operand), but not the arguments of control transfers: a loop parameter
// passed through unchanged must stay recognisably unchanged for hoisting.
func (s *simplifier) subst(a Atom, operand bool) (Atom, int32, bool) {
	idx := s.lookup(a)
	if idx < 0 {
		return a, -1, false
	}
	f := &s.facts[idx]
	if operand && f.known != nil {
		return f.known, -1, true
	}
	if f.sub != nil {
		return f.sub, f.subIdx, true
	}
	return a, idx, false
}

// substArgs substitutes the arguments of a control transfer, counting
// their uses, and copies the list only when it changes.
func (s *simplifier) substArgs(args []Atom) ([]Atom, bool) {
	var out []Atom
	for i, a := range args {
		r, idx, changed := s.subst(a, false)
		s.use(idx)
		if !changed {
			if out != nil {
				out[i] = a
			}
			continue
		}
		if out == nil {
			out = make([]Atom, len(args))
			copy(out, args[:i])
		}
		out[i] = r
	}
	if out == nil {
		return args, false
	}
	return out, true
}

// substOne substitutes one control-transfer operand, counting its use.
func (s *simplifier) substOne(a Atom) (Atom, bool) {
	r, idx, changed := s.subst(a, false)
	s.use(idx)
	return r, changed
}

func (s *simplifier) use(idx int32) {
	if idx >= 0 {
		s.uses[idx]++
	}
}

// isBool reports whether a (naming binding idx, if any) holds 0 or 1.
func (s *simplifier) isBool(a Atom, idx int32) bool {
	if idx >= 0 {
		return s.facts[idx].isBool
	}
	l, ok := a.(IntLit)
	return ok && (l.V == 0 || l.V == 1)
}

// expr simplifies e and reports whether the result differs from e (an
// unchanged subtree is returned as is, so an untouched function allocates
// nothing).
func (s *simplifier) expr(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case Let:
		return s.let(e, x)

	case Extern:
		args, ach := x.Args, false
		for i, a := range x.Args {
			r, _, ch := s.subst(a, true)
			if ch && !ach {
				args, ach = append([]Atom(nil), x.Args...), true
			}
			args[i] = r
		}
		s.bind(x.Dst, opaque)
		body, bch := s.expr(x.Body)
		for _, a := range args {
			s.use(s.lookup(a))
		}
		if !ach && !bch {
			return e, false
		}
		x.Args, x.Body = args, body
		return x, true

	case If:
		return s.branch(e, x)

	case Call:
		return s.call(e, x)

	case Halt:
		code, ch := s.substOne(x.Code)
		if !ch {
			return e, false
		}
		return Halt{Code: code}, true

	case Migrate:
		t, c1 := s.substOne(x.Target)
		off, c2 := s.substOne(x.TargetOff)
		fn, c3 := s.substOne(x.Fn)
		args, c4 := s.substArgs(x.Args)
		if !c1 && !c2 && !c3 && !c4 {
			return e, false
		}
		x.Target, x.TargetOff, x.Fn, x.Args = t, off, fn, args
		return x, true

	case Speculate:
		fn, c1 := s.substOne(x.Fn)
		args, c2 := s.substArgs(x.Args)
		if !c1 && !c2 {
			return e, false
		}
		x.Fn, x.Args = fn, args
		return x, true

	case Commit:
		lv, c1 := s.substOne(x.Level)
		fn, c2 := s.substOne(x.Fn)
		args, c3 := s.substArgs(x.Args)
		if !c1 && !c2 && !c3 {
			return e, false
		}
		x.Level, x.Fn, x.Args = lv, fn, args
		return x, true

	case Rollback:
		lv, c1 := s.substOne(x.Level)
		c, c2 := s.substOne(x.C)
		if !c1 && !c2 {
			return e, false
		}
		return Rollback{Level: lv, C: c}, true
	}
	return e, false
}

func (s *simplifier) call(e Expr, x Call) (Expr, bool) {
	fn, _, fch := s.subst(x.Fn, false)
	var dead []bool
	if f, ok := fn.(FunLit); ok {
		if g := s.plan[f.Name]; g != nil && !s.inlining && g.Name != s.fn.Name && s.canInline(g, x.Args) {
			return s.inline(g, x.Args), true
		}
		dead = s.dropArgs[f.Name]
	}
	var args []Atom
	var ach bool
	if dead != nil && len(dead) == len(x.Args) {
		args, ach = s.substArgs(dropDead(x.Args, dead))
		ach = true
	} else {
		args, ach = s.substArgs(x.Args)
	}
	s.use(s.lookup(fn))
	if !fch && !ach {
		return e, false
	}
	x.Fn, x.Args = fn, args
	return x, true
}

func (s *simplifier) let(e Expr, x Let) (Expr, bool) {
	// Operands are substituted into a stack buffer; a slice is allocated
	// only for a binding that survives with changed operands.
	var buf [3]Atom
	var idxs [3]int32
	wellFormed := wellFormedLet(x) && len(x.Args) <= len(buf)
	if !wellFormed {
		return s.opaqueLet(e, x)
	}
	args, ach := buf[:len(x.Args)], false
	for i, a := range x.Args {
		var ch bool
		args[i], idxs[i], ch = s.subst(a, x.Op != OpMove)
		ach = ach || ch
	}
	// The binding disappears when its value is already an atom in scope.
	var repl Atom
	replIdx := int32(-1)
	switch {
	case x.Op == OpMove:
		repl, replIdx = args[0], idxs[0]
		s.st.CopiesProp++
	default:
		if lit, ok := foldOp(x.Op, args); ok {
			repl = lit
			s.st.Folded++
		} else if i, ok := s.identity(x.Op, args, idxs[:len(args)]); ok {
			repl, replIdx = args[i], idxs[i]
			s.st.Folded++
		}
	}
	key, cse := cseKey{}, false
	if repl == nil && scalarOp(x.Op) {
		if key, cse = makeKey(x.Op, args, idxs[:len(args)]); cse {
			if prev, ok := s.cse[key]; ok {
				repl, replIdx = Var{Name: s.names[prev]}, prev
				s.st.CSE++
			}
		}
	}
	if repl != nil {
		s.bind(x.Dst, varFact{sub: repl, subIdx: replIdx, eqOf: -1, isBool: s.isBool(repl, replIdx)})
		body, _ := s.expr(x.Body)
		return body, true
	}

	fact := varFact{subIdx: -1, eqOf: -1, isBool: boolOp(x.Op)}
	switch x.Op {
	case OpAnd, OpOr, OpXor:
		fact.isBool = s.isBool(args[0], idxs[0]) && s.isBool(args[1], idxs[1])
	case OpEq:
		if lit, ok := args[1].(IntLit); ok && idxs[0] >= 0 {
			fact.eqOf, fact.eqLit = idxs[0], lit.V
		}
	}
	idx := s.bind(x.Dst, fact)
	if cse {
		s.setCSE(key, idx)
	}
	body, bch := s.expr(x.Body)
	if s.uses[idx] == 0 && pureOp(x.Op) {
		s.st.DeadLets++
		return body, true
	}
	for _, i := range idxs[:len(args)] {
		s.use(i)
	}
	if !ach && !bch {
		return e, false
	}
	if ach {
		x.Args = append([]Atom(nil), args...)
	}
	x.Body = body
	return x, true
}

// opaqueLet passes through a binding whose operands do not match its
// operator (Optimize runs before Check): substituted, never folded.
func (s *simplifier) opaqueLet(e Expr, x Let) (Expr, bool) {
	args, ach := s.substArgs(x.Args)
	s.bind(x.Dst, opaque)
	body, bch := s.expr(x.Body)
	if !ach && !bch {
		return e, false
	}
	x.Args, x.Body = args, body
	return x, true
}

// identity simplifies an operator application to one of its operands and
// returns that operand's position.
func (s *simplifier) identity(op Op, args []Atom, idxs []int32) (int, bool) {
	lit := func(i int, v int64) bool { return isLit(args[i], v) }
	switch op {
	case OpAdd, OpOr, OpXor:
		if lit(1, 0) {
			return 0, true
		}
		if lit(0, 0) {
			return 1, true
		}
	case OpSub:
		if lit(1, 0) {
			return 0, true
		}
	case OpMul:
		if lit(1, 1) {
			return 0, true
		}
		if lit(0, 1) {
			return 1, true
		}
	case OpNe:
		if lit(1, 0) && s.isBool(args[0], idxs[0]) {
			return 0, true
		}
	case OpEq:
		if lit(1, 1) && s.isBool(args[0], idxs[0]) {
			return 0, true
		}
	}
	return 0, false
}

func (s *simplifier) branch(e Expr, x If) (Expr, bool) {
	cond, cidx, cch := s.subst(x.Cond, true)
	if lit, ok := cond.(IntLit); ok {
		s.st.IfsFolded++
		arm := x.Else
		if lit.V != 0 {
			arm = x.Then
		}
		r, _ := s.expr(arm)
		return r, true
	}
	mark := s.mark()
	// In the then arm a 0/1 condition is 1, and t = eq(v, lit) pins v.
	if cidx >= 0 {
		f := s.facts[cidx]
		if f.isBool {
			s.know(cidx, 1)
		}
		if f.eqOf >= 0 {
			s.know(f.eqOf, f.eqLit)
		}
	}
	then, tch := s.expr(x.Then)
	s.undoTo(mark)
	if cidx >= 0 {
		s.know(cidx, 0)
	}
	els, ech := s.expr(x.Else)
	s.undoTo(mark)
	if merged, ok := s.mergeArms(cond, cidx, then, els); ok {
		s.st.IfsMerged++
		return merged, true
	}
	s.use(cidx)
	if !cch && !tch && !ech {
		return e, false
	}
	return If{Cond: cond, Then: then, Else: els}, true
}

// know records that a binding holds lit on the current path.
func (s *simplifier) know(idx int32, lit int64) {
	f := s.facts[idx]
	if f.sub != nil {
		return
	}
	f.known = IntLit{V: lit}
	f.isBool = lit == 0 || lit == 1
	s.setFact(idx, f)
}

// mergeArms turns `if c then f(a…, 1, …) else f(a…, 0, …)` into
// `f(a…, c, …)` for a 0/1 condition c, and an If with identical call or
// halt arms into that arm.
func (s *simplifier) mergeArms(cond Atom, cidx int32, then, els Expr) (Expr, bool) {
	if h1, ok := then.(Halt); ok {
		h2, ok := els.(Halt)
		return then, ok && sameAtom(h1.Code, h2.Code)
	}
	c1, ok1 := then.(Call)
	c2, ok2 := els.(Call)
	if !ok1 || !ok2 || !sameAtom(c1.Fn, c2.Fn) || len(c1.Args) != len(c2.Args) {
		return nil, false
	}
	condOK := s.isBool(cond, cidx)
	var out []Atom
	for i := range c1.Args {
		if sameAtom(c1.Args[i], c2.Args[i]) {
			continue
		}
		// The then arm passes 1 or c itself; the else arm 0 or c itself.
		if !condOK || !(isLit(c1.Args[i], 1) || sameAtom(c1.Args[i], cond)) ||
			!(isLit(c2.Args[i], 0) || sameAtom(c2.Args[i], cond)) {
			return nil, false
		}
		if out == nil {
			out = append([]Atom(nil), c1.Args...)
		}
		out[i] = cond
	}
	if out == nil {
		return then, true
	}
	s.use(cidx)
	return Call{Fn: c1.Fn, Args: out}, true
}

// dropDead returns args without the dead positions.
func dropDead(args []Atom, dead []bool) []Atom {
	out := make([]Atom, 0, len(args))
	for k, a := range args {
		if !dead[k] {
			out = append(out, a)
		}
	}
	return out
}

func isLit(a Atom, v int64) bool {
	l, ok := a.(IntLit)
	return ok && l.V == v
}

// canInline rejects a site where one of g's names would capture or shadow
// a name already in scope.
func (s *simplifier) canInline(g *Function, args []Atom) bool {
	if len(args) != len(g.Params) || !tinyBody(g) && exprSize(g.Body) > maxInlineBody {
		return false
	}
	for _, p := range g.Params {
		if s.inScopeName(p.Name) {
			return false
		}
	}
	ok := true
	binders(g.Body, func(name string) {
		if s.inScopeName(name) {
			ok = false
		}
	})
	return ok
}

// inline simplifies g's body in place of a call to g with args: g's
// parameters are bound to the (substituted) arguments.
func (s *simplifier) inline(g *Function, args []Atom) Expr {
	mark := s.mark()
	for i, p := range g.Params {
		a, idx, _ := s.subst(args[i], false)
		s.bind(p.Name, varFact{sub: a, subIdx: idx, eqOf: -1, isBool: s.isBool(a, idx)})
	}
	s.inlining = true
	body, _ := s.expr(g.Body)
	s.inlining = false
	s.undoTo(mark)
	s.st.Inlined++
	s.inlinedThisRun++
	return body
}

// binders visits the names e binds.
func binders(e Expr, visit func(string)) {
	for {
		switch x := e.(type) {
		case Let:
			visit(x.Dst)
			e = x.Body
			continue
		case Extern:
			visit(x.Dst)
			e = x.Body
			continue
		case If:
			binders(x.Then, visit)
			e = x.Else
			continue
		}
		return
	}
}

// keyOf makes a literal operand a map-key component.
func keyOf(a Atom) (atomKey, bool) {
	switch x := a.(type) {
	case IntLit:
		return atomKey{tag: atomInt, bits: uint64(x.V)}, true
	case FloatLit:
		return atomKey{tag: atomFloat, bits: math.Float64bits(x.V)}, true
	}
	return atomKey{}, false
}

func keyLess(a, b atomKey) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.bits < b.bits
}

// makeKey builds the CSE key of op over args (naming bindings idxs),
// ordering the operands of commutative integer operators. Float operators
// keep their order: IEEE results agree, but which NaN payload survives
// need not. It fails for an operand that is neither a binding in scope
// nor a number.
func makeKey(op Op, args []Atom, idxs []int32) (cseKey, bool) {
	k := cseKey{op: op}
	for i, a := range args {
		ak, ok := atomKey{tag: atomVar, bits: uint64(idxs[i])}, idxs[i] >= 0
		if !ok {
			ak, ok = keyOf(a)
		}
		if !ok {
			return cseKey{}, false
		}
		if i == 0 {
			k.a = ak
		} else {
			k.b = ak
		}
	}
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		if keyLess(k.b, k.a) {
			k.a, k.b = k.b, k.a
		}
	}
	return k, true
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
