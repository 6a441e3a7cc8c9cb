package fir

import "slices"

// Dead-parameter removal. The front ends thread every live variable
// through every continuation, so a loop's functions carry temporaries no
// one reads, and hoisting leaves behind parameters only the loop entry
// needed. A parameter is live when its function reads it anywhere except
// as an argument to a known call, or passes it to a live parameter;
// everything else is dead and leaves the signature and every call.

// removeDeadParams drops the dead parameters of functions used only as
// direct call targets: never the entry, never main, never a function that
// escapes as a value (the optimiser cannot see its callers), never one a
// skipped function calls. It returns, per function it changed, which of
// the old positions are dead: the calls still pass them until the
// simplifier's next walk drops those arguments (simplifier.dropArgs), so
// the program is consistent again only then.
func removeDeadParams(p *Program, skip map[*Function]bool) (map[string][]bool, int) {
	n := len(p.Funcs)
	esc := escaping(p)
	_, entry := p.Lookup(p.Entry)
	cand := make([]bool, n)
	off := make([]int32, n+1)
	for i, f := range p.Funcs {
		cand[i] = !esc[i] && i != entry && f.Name != "main" && !skip[f]
		off[i+1] = off[i] + int32(len(f.Params))
	}
	// The simplifier never rewrites a skipped function, so the calls it
	// makes keep every argument.
	for f := range skip {
		callees(f.Body, func(name string, _ bool) {
			if _, j := p.Lookup(name); j >= 0 {
				cand[j] = false
			}
		})
	}
	live := make([]bool, off[n])
	// An edge {callee slot, caller slot}: the caller's parameter is live if
	// the callee's is.
	type edge struct{ from, to int32 }
	edges := make([]edge, 0, off[n])
	pidx := make(map[string]int32)
	for i, f := range p.Funcs {
		if !cand[i] {
			for s := off[i]; s < off[i+1]; s++ {
				live[s] = true
			}
		}
		clear(pidx)
		for k, prm := range f.Params {
			pidx[prm.Name] = int32(k)
		}
		read := func(a Atom) {
			if v, ok := a.(Var); ok {
				if k, ok := pidx[v.Name]; ok {
					live[off[i]+k] = true
				}
			}
		}
		visitUses(f.Body, read, func(c Call) bool {
			fl, ok := c.Fn.(FunLit)
			if !ok {
				return false
			}
			_, j := p.Lookup(fl.Name)
			if j < 0 || !cand[j] || len(c.Args) != len(p.Funcs[j].Params) {
				return false
			}
			for k, a := range c.Args {
				if v, ok := a.(Var); ok {
					if m, ok := pidx[v.Name]; ok {
						edges = append(edges, edge{from: off[j] + int32(k), to: off[i] + m})
					}
				}
			}
			return true
		})
	}
	// Bucket the edges by callee slot (a counting sort), then propagate
	// liveness from every live slot.
	start := make([]int32, off[n]+1)
	for _, e := range edges {
		start[e.from+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	to := make([]int32, len(edges))
	fill := slices.Clone(start[:off[n]])
	for _, e := range edges {
		to[fill[e.from]] = e.to
		fill[e.from]++
	}
	var work []int32
	for s := range live {
		if live[s] {
			work = append(work, int32(s))
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range to[start[s]:start[s+1]] {
			if !live[t] {
				live[t] = true
				work = append(work, t)
			}
		}
	}

	var masks map[string][]bool
	removed := 0
	for j, f := range p.Funcs {
		var mask []bool
		for k := range f.Params {
			if !live[off[j]+int32(k)] {
				if mask == nil {
					mask = make([]bool, len(f.Params))
				}
				mask[k] = true
				removed++
			}
		}
		if mask == nil {
			continue
		}
		params := make([]Param, 0, len(f.Params))
		for k, prm := range f.Params {
			if !mask[k] {
				params = append(params, prm)
			}
		}
		f.Params = params
		if masks == nil {
			masks = make(map[string][]bool)
		}
		masks[f.Name] = mask
	}
	return masks, removed
}

// visitUses visits every atom e reads, except the arguments of tail calls
// that known accepts (reporting them itself).
func visitUses(e Expr, read func(Atom), known func(Call) bool) {
	all := func(as []Atom) {
		for _, a := range as {
			read(a)
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
			read(x.Cond)
			visitUses(x.Then, read, known)
			e = x.Else
			continue
		case Call:
			read(x.Fn)
			if !known(x) {
				all(x.Args)
			}
			return
		}
		visitAtoms(e, read)
		return
	}
}
