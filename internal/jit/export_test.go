package jit

import (
	"fmt"
	"unsafe"
)

// InsSize is the size of one instruction of the stream, in bytes.
const InsSize = unsafe.Sizeof(ins{})

// fnEnd is where function i's code ends.
func (c *Compiled) fnEnd(i int) int {
	if i+1 < len(c.fns) {
		return c.fns[i+1].entry
	}
	return len(c.code)
}

// ExternFreeLoops returns the program's loops that call no extern, each as
// the names of its functions. FIR lowers a loop to functions that
// tail-call each other, so a loop is a set of functions that reach each
// other through known calls; it is extern-free when none of them makes an
// extern call, a computed call or a transfer of control to the shell.
func ExternFreeLoops(c *Compiled) [][]string {
	n := len(c.fns)
	succ := make([][]int, n)
	pure := make([]bool, n)
	for i := range c.fns {
		pure[i] = true
		for pc := c.fns[i].entry; pc < c.fnEnd(i); pc++ {
			switch in := &c.code[pc]; in.op {
			case jCallKnown:
				succ[i] = append(succ[i], int(in.target))
			case jExtern, jCall, jHalt, jSpeculate, jCommit, jRollback, jMigrate:
				pure[i] = false
			}
		}
	}
	reach := make([][]bool, n) // reach[i][j]: i reaches j in one call or more
	for i := range reach {
		reach[i] = make([]bool, n)
		work := append([]int(nil), succ[i]...)
		for len(work) > 0 {
			j := work[len(work)-1]
			work = work[:len(work)-1]
			if !reach[i][j] {
				reach[i][j] = true
				work = append(work, succ[j]...)
			}
		}
	}
	var out [][]string
	placed := make([]bool, n)
	for i := range c.fns {
		if placed[i] || !reach[i][i] {
			continue
		}
		var names []string
		ok := true
		for j := range c.fns {
			if reach[i][j] && reach[j][i] {
				placed[j] = true
				ok = ok && pure[j]
				names = append(names, c.fns[j].fn.Name)
			}
		}
		if ok {
			out = append(out, names)
		}
	}
	return out
}

// GenericForms returns, for each int or float ALU, compare, branch, load
// or store instruction of the named functions that kept its generic,
// tag-testing form, a line naming it.
func GenericForms(c *Compiled, fns []string) []string {
	want := make(map[string]bool)
	for _, f := range fns {
		want[f] = true
	}
	var out []string
	for i := range c.fns {
		if !want[c.fns[i].fn.Name] {
			continue
		}
		for pc := c.fns[i].entry; pc < c.fnEnd(i); pc++ {
			switch in := &c.code[pc]; {
			case in.op >= jAdd && in.op <= jFtoI, in.op == jIf, in.op == jCmpBr, in.op == jLoad, in.op == jStore:
				out = append(out, fmt.Sprintf("%s pc %d: generic opcode %d (%s)", c.fns[i].fn.Name, pc, in.op, in.alu))
			}
		}
	}
	return out
}

// KnownCall is one known call: the function it is in, the function it
// calls, how many single moves its argument transfer was planned as, and
// how many of those carry a parameter of the caller out of place — to
// another slot, while the parameter's own slot takes another value or is
// past the callee's parameters.
type KnownCall struct {
	From, To       string
	Moves, Shifted int
}

// KnownCalls lists the program's known calls in code order.
func KnownCalls(c *Compiled) []KnownCall {
	var out []KnownCall
	for i := range c.fns {
		caller := int32(len(c.fns[i].fn.Params))
		for pc := c.fns[i].entry; pc < c.fnEnd(i); pc++ {
			in := &c.code[pc]
			if in.op != jCallKnown {
				continue
			}
			callee := int32(len(c.fns[in.target].fn.Params))
			k := KnownCall{From: c.fns[i].fn.Name, To: c.fns[in.target].fn.Name, Moves: len(in.moves)}
			written := make(map[int32]bool, len(in.moves))
			for _, mv := range in.moves {
				written[mv.dst] = true
			}
			for _, mv := range in.moves {
				if s := int32(mv.src); s < caller && (s >= callee || written[s]) {
					k.Shifted++
				}
			}
			out = append(out, k)
		}
	}
	return out
}
