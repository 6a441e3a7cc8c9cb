package fir

// Tiny-function inlining: the plan. The substitution itself happens in
// the simplifier's walk (simplifier.inline), so a literal argument folds
// the callee's If at the call site.

// Tiny-body limits: the front ends' branch joins and loop continuations
// are a forwarding call, or one If over at most a few pure bindings.
const (
	maxTinyLets = 4
	maxTinyIfs  = 1
)

// maxInlineBody bounds, in encoded bytes, the body one call site receives.
const maxInlineBody = 4096

// tinyBody reports whether f's body may be inlined: at most maxTinyLets
// bindings, each a pure operator that cannot trap, at most maxTinyIfs
// branches, and only direct calls (never to f itself) or halts as
// transfers. Nothing in such a body can fail, so inlining it never changes
// which function a RuntimeError names.
func tinyBody(f *Function) bool {
	lets, ifs := 0, 0
	var ok func(Expr) bool
	ok = func(e Expr) bool {
		for {
			switch x := e.(type) {
			case Let:
				if lets++; lets > maxTinyLets || !wellFormedLet(x) || !safeOp(x.Op, x.Args) {
					return false
				}
				e = x.Body
				continue
			case If:
				if ifs++; ifs > maxTinyIfs {
					return false
				}
				return ok(x.Then) && ok(x.Else)
			case Call:
				fn, direct := x.Fn.(FunLit)
				return direct && fn.Name != f.Name
			case Halt:
				return true
			}
			return false
		}
	}
	return ok(f.Body)
}

// wellFormedLet reports whether x has its operator's arity (Optimize runs
// before Check, so it must not trust its input).
func wellFormedLet(x Let) bool {
	sig, ok := sigOf(x.Op)
	return ok && len(sig.args) == len(x.Args)
}

// inlinee is one candidate and the direct calls to it.
type inlinee struct {
	fn    *Function
	sites []Call
}

// growth is what substituting the body at every site adds to the encoded
// program, in bytes: per site the body replaces the call, and a parameter
// named by a shorter atom than its argument grows with every use.
func (in *inlinee) growth(index map[string]int) int {
	uses := make([]int, len(in.fn.Params))
	countParamUses(in.fn, uses, index)
	body, grow := exprSize(in.fn.Body), 0
	for _, c := range in.sites {
		grow += body - (1 + atomSize(c.Fn) + atomsSize(c.Args))
		for k, n := range uses {
			if d := atomSize(c.Args[k]) - atomSize(Var{Name: in.fn.Params[k].Name}); d > 0 {
				grow += n * d
			}
		}
	}
	return grow
}

// headerSet caches which functions head a loop. Inlining a function that
// is not a header neither makes nor unmakes one (every path through it
// survives, composed), so all inlining rounds share one loop forest.
type headerSet struct {
	m     map[*Function]bool
	built bool
}

func (h *headerSet) has(p *Program, f *Function) bool {
	if !h.built {
		g := newCallGraph(p)
		g.loops(g.all(), nil)
		h.m, h.built = make(map[*Function]bool), true
		for i, is := range g.header {
			if is {
				h.m[p.Funcs[i]] = true
			}
		}
	}
	return h.m[f]
}

// planInlining picks the tiny functions to inline this round: those
// whose substitution at every direct call site, net of the function itself
// once nothing refers to it, does not grow the encoded program. It returns
// nil when there is nothing to do.
//
// Callees are substituted with their bodies as they stand when the walk
// reaches a site, so a callee simplified earlier in the same round arrives
// with its own sites already inlined; maxInlineBody bounds what one site
// can receive, and Optimize undoes a round that grows the program.
func planInlining(p *Program, skip map[*Function]bool, headers *headerSet) map[string]*Function {
	_, entry := p.Lookup(p.Entry)
	cands := make(map[string]*inlinee)
	for i, f := range p.Funcs {
		if i != entry && !skip[f] && tinyBody(f) {
			cands[f.Name] = &inlinee{fn: f}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	for _, f := range p.Funcs {
		visitCalls(f.Body, func(c Call) {
			fn, ok := c.Fn.(FunLit)
			if in := cands[fn.Name]; ok && in != nil && len(c.Args) == len(in.fn.Params) {
				in.sites = append(in.sites, c)
			}
		})
	}
	var esc []bool
	var plan map[string]*Function
	index := make(map[string]int)
	for i, f := range p.Funcs {
		// A loop header stays: inlined into its loop's exit it would fuse
		// that loop with the one around it, and nothing would be invariant.
		in := cands[f.Name]
		if in == nil || len(in.sites) == 0 || headers.has(p, f) {
			continue
		}
		if esc == nil {
			esc = escaping(p)
		}
		growth := in.growth(index)
		if !esc[i] {
			growth -= funcSize(f) // it dies with its last call
		}
		if growth <= 0 {
			if plan == nil {
				plan = make(map[string]*Function)
			}
			plan[f.Name] = f
		}
	}
	return plan
}

// countParamUses counts, per parameter of f, the atoms in f's body that
// name it. index is scratch, left empty.
func countParamUses(f *Function, uses []int, index map[string]int) {
	for k, p := range f.Params {
		index[p.Name] = k
	}
	visitAtoms(f.Body, func(a Atom) {
		if v, ok := a.(Var); ok {
			if k, ok := index[v.Name]; ok {
				uses[k]++
			}
		}
	})
	for _, p := range f.Params {
		delete(index, p.Name)
	}
}

// visitCalls visits every tail call in e.
func visitCalls(e Expr, visit func(Call)) {
	for {
		switch x := e.(type) {
		case Let:
			e = x.Body
			continue
		case Extern:
			e = x.Body
			continue
		case If:
			visitCalls(x.Then, visit)
			e = x.Else
			continue
		case Call:
			visit(x)
		}
		return
	}
}

// visitAtoms visits every operand atom in e.
func visitAtoms(e Expr, visit func(Atom)) {
	all := func(as []Atom) {
		for _, a := range as {
			visit(a)
		}
	}
	for {
		switch x := e.(type) {
		case Let:
			all(x.Args)
			e = x.Body
			continue
		case Extern:
			all(x.Args)
			e = x.Body
			continue
		case If:
			visit(x.Cond)
			visitAtoms(x.Then, visit)
			e = x.Else
			continue
		case Call:
			visit(x.Fn)
			all(x.Args)
		case Halt:
			visit(x.Code)
		case Migrate:
			visit(x.Target)
			visit(x.TargetOff)
			visit(x.Fn)
			all(x.Args)
		case Speculate:
			visit(x.Fn)
			all(x.Args)
		case Commit:
			visit(x.Level)
			visit(x.Fn)
			all(x.Args)
		case Rollback:
			visit(x.Level)
			visit(x.C)
		}
		return
	}
}
