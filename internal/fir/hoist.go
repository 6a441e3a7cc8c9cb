package fir

import (
	"slices"
	"strconv"
	"strings"
)

// Loop-invariant hoisting over tail-call loops.
//
// FIR has no loops, only tail calls, so a loop is a cycle of direct calls:
// lang's `for` lowers to $loop → body joins → $cont → $loop. The loops of
// a program are found as a forest over the direct-call graph: each
// strongly connected set of functions is a loop, and cutting the calls
// back into its headers (the members called from outside it) exposes the
// loops nested inside. Only innermost loops are hoisted from: a value
// hoisted out of an outer loop would be one more argument on every call
// of the inner loops it contains, which run far more often.
//
// Within a loop, parameter slots are grouped by what every call inside the
// loop passes to them: a slot that always receives a parameter of the
// calling function, in the same group, with one slot per function, holds
// one value for as long as control stays in the loop — it is invariant.
// A pure binding whose operands are invariants or literals becomes a new
// parameter of every member, computed once by each call entering the loop.
//
// The new parameters go at the same index in every member: the loop's
// shortest arity. lang lowers a join over the variables in scope in
// declaration order, so the members' parameters share an aligned prefix;
// with the hoisted ones after that prefix and ahead of each member's own
// tail, a call inside the loop passes every invariant in the slot it
// already occupies, which the engine's move planner drops. Appended after
// each member's own parameters instead, they would shift by one slot on
// every call between members whose arities differ.

// maxRegion bounds the functions in a loop eligible for hoisting: each
// hoisted value is one more argument on every call inside the loop.
const maxRegion = 16

// maxHoisted bounds the values hoisted into one loop, for the same reason.
const maxHoisted = 12

// callGraph is the direct-call graph.
type callGraph struct {
	succ, pred       [][]int32 // views into two flat edge arrays
	index, low, mark []int32
	onStack          []bool
	header           []bool // called from outside a loop it belongs to
	stack            []int32
	counter, stamp   int32
}

func newCallGraph(p *Program) *callGraph {
	n := len(p.Funcs)
	g := &callGraph{
		succ: make([][]int32, n), pred: make([][]int32, n),
		index: make([]int32, n), low: make([]int32, n), mark: make([]int32, n),
		onStack: make([]bool, n), header: make([]bool, n),
	}
	// Two passes: count each function's edges, then fill flat arrays.
	outDeg, inDeg := make([]int32, n), make([]int32, n)
	edges := func(visit func(from, to int32)) {
		for i, f := range p.Funcs {
			visitCalls(f.Body, func(c Call) {
				if fl, ok := c.Fn.(FunLit); ok {
					if _, j := p.Lookup(fl.Name); j >= 0 {
						visit(int32(i), int32(j))
					}
				}
			})
		}
	}
	total := 0
	edges(func(from, to int32) { outDeg[from]++; inDeg[to]++; total++ })
	out, in := make([]int32, 0, total), make([]int32, total)
	for i := 0; i < n; i++ {
		g.pred[i] = in[:0:inDeg[i]]
		in = in[inDeg[i]:]
	}
	edges(func(from, to int32) {
		if g.succ[from] == nil {
			start := len(out)
			out = out[:start+int(outDeg[from])]
			g.succ[from] = out[start:start:len(out)]
		}
		g.succ[from] = append(g.succ[from], to)
		g.pred[to] = append(g.pred[to], from)
	})
	return g
}

// loops returns the loops among nodes, innermost first. cut marks the
// headers of the enclosing loop, whose incoming edges no longer count.
func (g *callGraph) loops(nodes []int32, cut map[int32]bool) [][]int32 {
	g.stamp++
	for _, v := range nodes {
		g.mark[v] = g.stamp
		g.index[v] = -1
	}
	stamp := g.stamp
	var sccs [][]int32
	var connect func(v int32)
	connect = func(v int32) {
		g.counter++
		g.index[v], g.low[v] = g.counter, g.counter
		g.stack = append(g.stack, v)
		g.onStack[v] = true
		for _, w := range g.succ[v] {
			if g.mark[w] != stamp || cut[w] {
				continue
			}
			if g.index[w] < 0 {
				connect(w)
				g.low[v] = min(g.low[v], g.low[w])
			} else if g.onStack[w] {
				g.low[v] = min(g.low[v], g.index[w])
			}
		}
		if g.low[v] != g.index[v] {
			return
		}
		var scc []int32
		for {
			w := g.stack[len(g.stack)-1]
			g.stack = g.stack[:len(g.stack)-1]
			g.onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		if len(scc) > 1 || !cut[v] && g.selfLoop(v) {
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if g.index[v] < 0 {
			connect(v)
		}
	}
	var out [][]int32
	for _, scc := range sccs {
		in := make(map[int32]bool, len(scc))
		for _, v := range scc {
			in[v] = true
		}
		headers := make(map[int32]bool)
		for _, v := range scc {
			for _, u := range g.pred[v] {
				if !in[u] {
					headers[v] = true
					g.header[v] = true
				}
			}
		}
		if len(headers) > 0 {
			out = append(out, g.loops(scc, headers)...)
		}
		out = append(out, scc)
	}
	return out
}

// all lists every function index.
func (g *callGraph) all() []int32 {
	all := make([]int32, len(g.succ))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

func (g *callGraph) selfLoop(v int32) bool {
	for _, w := range g.succ[v] {
		if w == v {
			return true
		}
	}
	return false
}

// operand is one operand of a hoisted expression: a literal, an invariant
// parameter group, or an earlier hoisted value.
type operand struct {
	kind uint8 // 0 literal, 1 parameter group, 2 hoisted value
	id   int32
	lit  atomKey
}

type hoistKey struct {
	op   Op
	a, b operand
}

// hoisted is one value computed at loop entry.
type hoisted struct {
	key  hoistKey
	ty   Type
	lits [2]Atom // literal operands, by position
	name string  // the new parameter, in every member
	lets int     // bindings it replaces
	ok   bool    // accepted under the size budget
}

// hoister processes one loop.
type hoister struct {
	p       *Program
	g       *callGraph
	members []int32
	pos     map[int32]int32 // function index → member position
	off     []int32         // member position → first slot
	parent  []int32         // union-find over slots
	bad     []bool          // per root: not invariant
	pidx    map[string]int32
	vals    []hoisted
	byKey   map[hoistKey]int32
	local   map[string]int32 // hoisted bindings in scope → value
	params  []Atom           // the accepted values' parameters, in order
	at      int              // where they go in every member: its shortest arity
	undo    []string
	fresh   func() string
	removed int
	touched map[*Function]bool
}

func (h *hoister) find(x int32) int32 {
	for h.parent[x] != x {
		h.parent[x] = h.parent[h.parent[x]]
		x = h.parent[x]
	}
	return x
}

// hoistLoops hoists loop invariants in every eligible loop of p, spending
// at most budget encoded bytes, and marks the functions it rewrote in
// touched.
func hoistLoops(p *Program, st *OptStats, budget int, skip, touched map[*Function]bool) {
	if budget <= 0 || len(p.Funcs) == 0 {
		return
	}
	g := newCallGraph(p)
	esc := escaping(p)
	_, entry := p.Lookup(p.Entry)
	fresh := freshNames(p)
	inner := make([]bool, len(p.Funcs)) // member of a loop already seen
	// Loops come innermost first: one with a member already seen is an
	// outer loop.
	for _, loop := range g.loops(g.all(), nil) {
		eligible := len(loop) <= maxRegion
		for _, v := range loop {
			eligible = eligible && !inner[v]
			inner[v] = true
		}
		for _, v := range loop {
			f := p.Funcs[v]
			eligible = eligible && !esc[v] && int(v) != entry && !skip[f]
		}
		if !eligible {
			continue
		}
		h := &hoister{p: p, g: g, members: loop, fresh: fresh, touched: touched}
		st.Hoisted += h.run(&budget)
	}
}

// freshNames returns a generator of names no function of p uses: a
// prefix no existing name starts with, then a counter. The prefix is
// chosen on the first call, so a program nothing is hoisted from is not
// scanned.
func freshNames(p *Program) func() string {
	prefix, n := "", 0
	return func() string {
		for prefix == "" || n == 0 && usesPrefix(p, prefix) {
			prefix += "%"
		}
		n++
		return prefix + strconv.Itoa(n)
	}
}

// usesPrefix reports whether a parameter or binder of p starts with prefix.
func usesPrefix(p *Program, prefix string) bool {
	used := false
	check := func(name string) {
		used = used || strings.HasPrefix(name, prefix)
	}
	for _, f := range p.Funcs {
		for _, prm := range f.Params {
			check(prm.Name)
		}
		binders(f.Body, check)
	}
	return used
}

// run hoists what it can out of one loop and returns the bindings it
// replaced.
func (h *hoister) run(budget *int) int {
	p := h.p
	h.pos = make(map[int32]int32, len(h.members))
	h.off = make([]int32, len(h.members)+1)
	h.at = len(p.Funcs[h.members[0]].Params)
	for i, v := range h.members {
		h.pos[v] = int32(i)
		h.off[i+1] = h.off[i] + int32(len(p.Funcs[v].Params))
		h.at = min(h.at, len(p.Funcs[v].Params))
	}
	slots := h.off[len(h.members)]
	h.parent = make([]int32, slots)
	for i := range h.parent {
		h.parent[i] = int32(i)
	}
	variant := make([]bool, slots)
	h.pidx = make(map[string]int32)
	intra := 0
	for i, v := range h.members {
		h.indexParams(v)
		wellFormed := true
		visitCalls(p.Funcs[v].Body, func(c Call) {
			j, ok := h.member(c)
			if !ok {
				return
			}
			if len(c.Args) != len(p.Funcs[h.members[j]].Params) {
				wellFormed = false
				return
			}
			intra++
			for k, a := range c.Args {
				slot := h.off[j] + int32(k)
				if m, ok := h.param(a); ok {
					h.parent[h.find(slot)] = h.find(h.off[i] + m)
				} else {
					variant[slot] = true
				}
			}
		})
		if !wellFormed {
			return 0
		}
	}
	h.bad = make([]bool, slots)
	seen := make([]int32, slots)
	for i := range h.members {
		for s := h.off[i]; s < h.off[i+1]; s++ {
			r := h.find(s)
			h.bad[r] = h.bad[r] || variant[s] || seen[r] == int32(i)+1
			seen[r] = int32(i) + 1
		}
	}

	// Discover the hoistable values, in walk order.
	h.byKey = make(map[hoistKey]int32)
	h.local = make(map[string]int32)
	for _, v := range h.members {
		h.indexParams(v)
		h.closeScope(0)
		h.scan(p.Funcs[v].Body, v)
	}
	if len(h.vals) == 0 {
		return 0
	}

	// Accept values while the estimated growth stays within budget; a
	// value whose operand was refused is refused too. An entry of the
	// wrong arity has no slot h.at to pass them at: the loop is left alone.
	callers := h.callers()
	entries, wellFormed := 0, true
	for _, i := range callers {
		visitCalls(p.Funcs[i].Body, func(c Call) {
			if j, ok := h.member(c); ok {
				entries++
				wellFormed = wellFormed && len(c.Args) == len(p.Funcs[h.members[j]].Params)
			}
		})
	}
	if !wellFormed {
		return 0
	}
	accepted, left := 0, *budget
	for i := range h.vals {
		val := &h.vals[i]
		if val.lets == 0 || accepted == maxHoisted || !h.operandOK(val.key.a) || !h.operandOK(val.key.b) {
			continue
		}
		val.name = h.fresh()
		nameAtom := atomSize(Var{Name: val.name})
		cost := len(h.members)*(strSize(val.name)+typeSize(val.ty)) + intra*nameAtom +
			entries*(1+strSize(val.name)+typeSize(val.ty)+1+1+2*(1+10)+nameAtom) -
			val.lets*(1+1+typeSize(val.ty)+1+1+2*2)
		if cost > left {
			continue
		}
		left -= cost
		val.ok = true
		accepted++
	}
	if accepted == 0 {
		return 0
	}
	for _, val := range h.vals {
		if val.ok {
			h.params = append(h.params, Var{Name: val.name})
		}
	}

	// Rewrite: members drop the hoisted bindings and gain the parameters;
	// every call entering the loop computes them. The estimate is not a
	// bound (names can be any length), so the rewritten functions are
	// measured before and after, and put back if they outgrew the budget.
	rewritten := append(slices.Clone(h.members), callers...)
	type saved struct {
		params []Param
		body   Expr
	}
	old, before := make([]saved, len(rewritten)), 0
	for k, v := range rewritten {
		f := p.Funcs[v]
		old[k] = saved{f.Params, f.Body}
		before += funcSize(f)
	}
	for _, v := range h.members {
		f := p.Funcs[v]
		h.indexParams(v)
		h.closeScope(0)
		f.Body, _ = h.rewrite(f.Body, v, nil)
		params := append(make([]Param, 0, len(f.Params)+len(h.params)), f.Params[:h.at]...)
		for _, val := range h.vals {
			if val.ok {
				params = append(params, Param{Name: val.name, Type: val.ty})
			}
		}
		f.Params = append(params, f.Params[h.at:]...)
	}
	for _, i := range callers {
		f := p.Funcs[i]
		f.Body, _ = mapCalls(f.Body, h.enter)
	}
	grow := -before
	for _, v := range rewritten {
		grow += funcSize(p.Funcs[v])
	}
	if grow > *budget {
		for k, v := range rewritten {
			p.Funcs[v].Params, p.Funcs[v].Body = old[k].params, old[k].body
		}
		return 0
	}
	*budget -= grow
	for _, v := range rewritten {
		h.touched[p.Funcs[v]] = true
	}
	return h.removed
}

// callers lists, in program order, the functions outside the loop that
// call into it directly.
func (h *hoister) callers() []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, v := range h.members {
		for _, u := range h.g.pred[v] {
			if _, in := h.pos[u]; !in && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out
}

// indexParams indexes the parameters of function v for param().
func (h *hoister) indexParams(v int32) {
	clear(h.pidx)
	for k, prm := range h.p.Funcs[v].Params {
		h.pidx[prm.Name] = int32(k)
	}
}

// param reports the position of a, when it names a parameter of the
// function last indexed by indexParams.
func (h *hoister) param(a Atom) (int32, bool) {
	if v, ok := a.(Var); ok {
		k, ok := h.pidx[v.Name]
		return k, ok
	}
	return 0, false
}

// member reports the member position of a direct call's callee.
func (h *hoister) member(c Call) (int32, bool) {
	if fl, ok := c.Fn.(FunLit); ok {
		if _, j := h.p.Lookup(fl.Name); j >= 0 {
			pos, in := h.pos[int32(j)]
			return pos, in
		}
	}
	return 0, false
}

func (h *hoister) operandOK(o operand) bool {
	return o.kind != 2 || h.vals[o.id].ok
}

// classify returns the hoisted value a binding in member v computes, if
// its operands are all invariant parameters, hoisted values or literals.
func (h *hoister) classify(x Let, v int32) (hoistKey, bool) {
	if !wellFormedLet(x) || !scalarOp(x.Op) || !safeOp(x.Op, x.Args) {
		return hoistKey{}, false
	}
	key := hoistKey{op: x.Op}
	invariant := false
	for i, a := range x.Args {
		var o operand
		if k, ok := h.param(a); ok {
			r := h.find(h.off[h.pos[v]] + k)
			if h.bad[r] {
				return hoistKey{}, false
			}
			o = operand{kind: 1, id: r}
			invariant = true
		} else if w, ok := a.(Var); ok {
			id, ok := h.local[w.Name]
			if !ok {
				return hoistKey{}, false
			}
			o = operand{kind: 2, id: id}
			invariant = true
		} else if lit, ok := keyOf(a); ok {
			o = operand{lit: lit}
		} else {
			return hoistKey{}, false
		}
		if i == 0 {
			key.a = o
		} else {
			key.b = o
		}
	}
	return key, invariant
}

// bindLocal records a hoisted binding in scope.
func (h *hoister) bindLocal(name string, id int32) {
	h.local[name] = id
	h.undo = append(h.undo, name)
}

func (h *hoister) closeScope(mark int) {
	for _, name := range h.undo[mark:] {
		delete(h.local, name)
	}
	h.undo = h.undo[:mark]
}

// scan discovers the hoistable bindings of member v's body and reports
// whether e can call back into the loop. A binding counts only on such a
// path: one on the way out runs once per loop anyway, and hoisting it
// would only add an argument to every iteration.
func (h *hoister) scan(e Expr, v int32) bool {
	switch x := e.(type) {
	case Let:
		id := int32(-1)
		if key, ok := h.classify(x, v); ok {
			var known bool
			if id, known = h.byKey[key]; !known {
				id = int32(len(h.vals))
				h.byKey[key] = id
				val := hoisted{key: key, ty: x.DstType}
				for i, a := range x.Args {
					if _, isVar := a.(Var); !isVar {
						val.lits[i] = a
					}
				}
				h.vals = append(h.vals, val)
			}
			h.bindLocal(x.Dst, id)
		}
		loops := h.scan(x.Body, v)
		if id >= 0 && loops {
			h.vals[id].lets++
		}
		return loops
	case Extern:
		return h.scan(x.Body, v)
	case If:
		mark := len(h.undo)
		then := h.scan(x.Then, v)
		h.closeScope(mark)
		els := h.scan(x.Else, v)
		h.closeScope(mark)
		return then || els
	case Call:
		_, in := h.member(x)
		return in
	}
	return false
}

// loops reports whether e can call back into the loop.
func (h *hoister) loops(e Expr) bool {
	found := false
	visitCalls(e, func(c Call) {
		_, in := h.member(c)
		found = found || in
	})
	return found
}

// rewrite replaces member v's accepted hoisted bindings on looping paths
// by their parameters and passes the parameters on in every call inside
// the loop.
// sub maps replaced names to the parameter atoms, along the current path.
func (h *hoister) rewrite(e Expr, v int32, sub map[string]Atom) (Expr, bool) {
	switch x := e.(type) {
	case Let:
		args, ach := substIn(x.Args, sub)
		if key, ok := h.classify(x, v); ok {
			id := h.byKey[key]
			h.bindLocal(x.Dst, id)
			if val := h.vals[id]; val.ok && h.loops(x.Body) {
				if sub == nil {
					sub = make(map[string]Atom)
				}
				sub[x.Dst] = Var{Name: val.name}
				h.removed++
				body, _ := h.rewrite(x.Body, v, sub)
				delete(sub, x.Dst)
				return body, true
			}
		}
		body, bch := h.rewrite(x.Body, v, sub)
		if !ach && !bch {
			return e, false
		}
		x.Args, x.Body = args, body
		return x, true
	case Extern:
		args, ach := substIn(x.Args, sub)
		body, bch := h.rewrite(x.Body, v, sub)
		if !ach && !bch {
			return e, false
		}
		x.Args, x.Body = args, body
		return x, true
	case If:
		cond, cch := substOne(x.Cond, sub)
		mark := len(h.undo)
		then, tch := h.rewrite(x.Then, v, sub)
		h.closeScope(mark)
		els, ech := h.rewrite(x.Else, v, sub)
		h.closeScope(mark)
		if !cch && !tch && !ech {
			return e, false
		}
		return If{Cond: cond, Then: then, Else: els}, true
	case Call:
		args, ach := substIn(x.Args, sub)
		if _, in := h.member(x); in {
			args = h.insert(args, h.params)
			ach = true
		}
		if !ach {
			return e, false
		}
		x.Args = args
		return x, true
	}
	return substTerminal(e, sub)
}

// enter rewrites a call from outside the loop into member function: it
// computes every accepted value from the arguments and passes them.
func (h *hoister) enter(c Call) (Expr, bool) {
	j, in := h.member(c)
	if !in {
		return nil, false
	}
	callee := h.members[j]
	names := make([]Atom, len(h.vals))
	var lets []Let
	var passed []Atom
	for i, val := range h.vals {
		if !val.ok {
			continue
		}
		ops := []Atom{h.entryOperand(val.key.a, val.lits[0], callee, c.Args, names)}
		if len(opSigs[val.key.op].args) == 2 {
			ops = append(ops, h.entryOperand(val.key.b, val.lits[1], callee, c.Args, names))
		}
		name := h.fresh()
		names[i] = Var{Name: name}
		lets = append(lets, Let{Dst: name, DstType: val.ty, Op: val.key.op, Args: ops})
		passed = append(passed, names[i])
	}
	var out Expr = Call{Fn: c.Fn, Args: h.insert(c.Args, passed)}
	for i := len(lets) - 1; i >= 0; i-- {
		lets[i].Body = out
		out = lets[i]
	}
	return out, true
}

// insert returns a call's arguments to a member with the hoisted values
// passed at index h.at.
func (h *hoister) insert(args, hoisted []Atom) []Atom {
	out := make([]Atom, 0, len(args)+len(hoisted))
	return append(append(append(out, args[:h.at]...), hoisted...), args[h.at:]...)
}

// entryOperand is an operand of a hoisted value at a call entering the
// loop at callee with args.
func (h *hoister) entryOperand(o operand, lit Atom, callee int32, args []Atom, names []Atom) Atom {
	switch o.kind {
	case 1:
		start := h.off[h.pos[callee]]
		for k := range args {
			if h.find(start+int32(k)) == o.id {
				return args[k]
			}
		}
		panic("fir: invariant group without a slot in a loop member")
	case 2:
		return names[o.id]
	}
	return lit
}

// substIn substitutes names in as, copying only on change.
func substIn(as []Atom, sub map[string]Atom) ([]Atom, bool) {
	if len(sub) == 0 {
		return as, false
	}
	var out []Atom
	for i, a := range as {
		v, ok := a.(Var)
		r, hit := sub[v.Name]
		if !ok || !hit {
			continue
		}
		if out == nil {
			out = append([]Atom(nil), as...)
		}
		out[i] = r
	}
	if out == nil {
		return as, false
	}
	return out, true
}

func substOne(a Atom, sub map[string]Atom) (Atom, bool) {
	if v, ok := a.(Var); ok {
		if r, hit := sub[v.Name]; hit {
			return r, true
		}
	}
	return a, false
}

// substTerminal substitutes names in a non-call control transfer.
func substTerminal(e Expr, sub map[string]Atom) (Expr, bool) {
	if len(sub) == 0 {
		return e, false
	}
	one := func(a Atom) (Atom, bool) { return substOne(a, sub) }
	switch x := e.(type) {
	case Halt:
		if c, ch := one(x.Code); ch {
			return Halt{Code: c}, true
		}
	case Migrate:
		t, c1 := one(x.Target)
		off, c2 := one(x.TargetOff)
		args, c3 := substIn(x.Args, sub)
		if c1 || c2 || c3 {
			x.Target, x.TargetOff, x.Args = t, off, args
			return x, true
		}
	case Speculate:
		if args, ch := substIn(x.Args, sub); ch {
			x.Args = args
			return x, true
		}
	case Commit:
		lv, c1 := one(x.Level)
		args, c2 := substIn(x.Args, sub)
		if c1 || c2 {
			x.Level, x.Args = lv, args
			return x, true
		}
	case Rollback:
		lv, c1 := one(x.Level)
		c, c2 := one(x.C)
		if c1 || c2 {
			return Rollback{Level: lv, C: c}, true
		}
	}
	return e, false
}

// mapCalls rebuilds e with each tail call replaced by fn's result when fn
// reports a change, copying only the path above a changed call.
func mapCalls(e Expr, fn func(Call) (Expr, bool)) (Expr, bool) {
	switch x := e.(type) {
	case Let:
		if body, ch := mapCalls(x.Body, fn); ch {
			x.Body = body
			return x, true
		}
	case Extern:
		if body, ch := mapCalls(x.Body, fn); ch {
			x.Body = body
			return x, true
		}
	case If:
		then, tch := mapCalls(x.Then, fn)
		els, ech := mapCalls(x.Else, fn)
		if tch || ech {
			return If{Cond: x.Cond, Then: then, Else: els}, true
		}
	case Call:
		if r, ch := fn(x); ch {
			return r, true
		}
	}
	return e, false
}
