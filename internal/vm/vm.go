// Package vm implements the MCC interpreted runtime environment: it
// executes FIR programs against the runtime heap, one FIR node per step,
// inside the shared process shell (rt.Shell) that wires the speculate,
// commit, rollback and migrate pseudo-instructions to the speculation
// manager and the migration subsystem. It corresponds to the paper's
// "interpreted runtime environment" backend (§3) and is the reference the
// threaded-code engine (internal/jit) is tested against.
package vm

import (
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/ops"
	"repro/internal/rt"
	"repro/internal/spec"
)

// Process is one executing FIR program: the paper's unit of migration and
// speculation. All process state lives in the heap, the current frame, and
// the speculation manager — which is exactly what pack captures (the frame
// itself never crosses a pack boundary: the continuation and its arguments
// are written into the heap, so images stay frame-layout-independent).
//
// Execution runs on the slot-resolved core (slots.go): the program is
// compiled to linear instructions whose variables are dense frame-slot
// indices, replacing the historical per-step name→value map.
type Process struct {
	rt.Shell

	compiled *Compiled
	fp       *frameProg
	frame    []heap.Value
	pc       int

	// Hot-path scratch, reused across steps. Callees never retain these
	// slices (rt.ExternFn documents the contract).
	letbuf [3]heap.Value
	argbuf []heap.Value
}

// NewProcess creates a process for prog with a fresh heap. c, when it was
// built from prog, is adopted instead of compiling (Precompile); nil is
// fine. Register externs and a migration handler, then call Start.
func NewProcess(prog *fir.Program, c *Compiled, cfg rt.Config) *Process {
	p, _ := ResumeProcess(prog, nil, nil, c, cfg) // no continuation stack to reject
	return p
}

// ResumeProcess builds a process around a restored heap and speculation
// continuation stack. Used by unpack, which continues with StartAt: the
// program has already been decoded and (for untrusted peers) type-checked.
func ResumeProcess(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, c *Compiled, cfg rt.Config) (*Process, error) {
	p := &Process{compiled: c}
	if err := p.Init(p, prog, h, conts, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Roots implements rt.Core: the live frame slots of the current
// instruction. frame[:depth] is exactly the value set of the historical
// environment map at this program point.
func (p *Process) Roots(yield func(heap.Value)) {
	if p.fp != nil && p.pc < len(p.fp.code) {
		for _, v := range p.frame[:p.fp.code[p.pc].depth] {
			yield(v)
		}
	}
}

// Load implements rt.Core: it compiles the program to slot-resolved code
// (or adopts the precompiled artifact) and sizes the frame.
func (p *Process) Load() ([]string, error) {
	if c := p.compiled; c != nil && c.prog == p.Program() {
		p.fp = c.fp
	} else {
		fp, err := compileFrames(p.Program())
		if err != nil {
			return nil, err
		}
		p.fp = fp
	}
	p.frame = make([]heap.Value, p.fp.slots)
	return p.fp.extNames, nil
}

// Invoke implements rt.Core: it positions the process at function fnIdx
// with args bound to its parameter slots, applying the runtime type checks
// on every value.
func (p *Process) Invoke(fnIdx int64, args []heap.Value) error {
	if fnIdx < 0 || fnIdx >= int64(len(p.fp.fns)) {
		_, err := p.Program().FuncByIndex(int(fnIdx))
		return err
	}
	f := &p.fp.fns[fnIdx]
	if err := rt.CheckArgs(f.fn, args); err != nil {
		return err
	}
	copy(p.frame[:len(args)], args)
	p.pc = f.entry
	p.CurFn = f.fn.Name
	return nil
}

// RunSeg implements rt.Core, one step at a time.
func (p *Process) RunSeg(budget uint64) error {
	for ; budget > 0; budget-- {
		p.Charge(1)
		if err := p.step(); err != nil {
			return err
		}
		if p.Status() != rt.StatusRunning || p.Yielding() {
			break
		}
	}
	return nil
}

// operand reads one resolved operand: a live frame slot or an immediate.
func (p *Process) operand(a *fatom) heap.Value {
	if a.slot >= 0 {
		return p.frame[a.slot]
	}
	return a.imm
}

// gather reads an operand list into the reused argument scratch buffer.
// The result is valid until the next gather; callees must not retain it.
func (p *Process) gather(args []fatom) []heap.Value {
	buf := p.argbuf[:0]
	for i := range args {
		buf = append(buf, p.operand(&args[i]))
	}
	p.argbuf = buf
	return buf
}

// step executes one instruction — exactly one FIR node.
func (p *Process) step() error {
	in := &p.fp.code[p.pc]
	switch in.op {
	case fLet:
		var args []heap.Value
		if in.args == nil {
			switch in.nargs {
			case 1:
				p.letbuf[0] = p.operand(&in.a)
			case 2:
				p.letbuf[0] = p.operand(&in.a)
				p.letbuf[1] = p.operand(&in.b)
			case 3:
				p.letbuf[0] = p.operand(&in.a)
				p.letbuf[1] = p.operand(&in.b)
				p.letbuf[2] = p.operand(&in.c)
			}
			args = p.letbuf[:in.nargs]
		} else {
			args = p.gather(in.args)
		}
		v, err := ops.Eval(p.Heap(), in.alu, args, in.dstTy)
		if err != nil {
			return p.RuntimeErr(err)
		}
		p.frame[in.dst] = v
		p.pc++
		return nil

	case fExtern:
		v, err := p.CallExtern(in.extIdx, p.gather(in.args))
		if err != nil {
			return err
		}
		p.frame[in.dst] = v
		p.pc++
		return nil

	case fIf:
		c := p.operand(&in.a)
		if c.Kind != heap.KInt {
			return p.RuntimeErrf("if condition is %s, want int", c.Kind)
		}
		if c.I != 0 {
			p.pc++
		} else {
			p.pc = int(in.target)
		}
		return nil

	case fCall:
		fnv := p.operand(&in.a)
		if fnv.Kind != heap.KFun {
			return p.RuntimeErrf("call target is %s, want fun", fnv)
		}
		if err := p.Invoke(fnv.I, p.gather(in.args)); err != nil {
			return p.RuntimeErr(err)
		}
		return nil

	case fHalt:
		return p.Halt(p.operand(&in.a))
	case fSpeculate:
		return p.Speculate(p.operand(&in.a), p.gather(in.args))
	case fCommit:
		return p.Commit(p.operand(&in.a), p.operand(&in.b), p.gather(in.args))
	case fRollback:
		return p.Rollback(p.operand(&in.a), p.operand(&in.b))
	case fMigrate:
		return p.Migrate(int(in.target), p.operand(&in.a), p.operand(&in.b), p.operand(&in.c), p.gather(in.args))

	default:
		return p.RuntimeErrf("unknown opcode %d", in.op)
	}
}
