package jit

import (
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/ops"
	"repro/internal/rt"
	"repro/internal/spec"
)

// Machine executes threaded code against the runtime heap inside the
// shared process shell (rt.Shell), so externals, migration, speculation
// and GC behave exactly as on the interpreter.
type Machine struct {
	rt.Shell

	c     *Compiled // offered at construction (may be nil); what runs, after Load
	code  []ins     // c.code once loaded
	frame []heap.Value
	pc    int

	// Hot-path scratch, reused across steps; callees never retain these
	// slices (rt.ExternFn documents the contract).
	evalbuf [3]heap.Value
	argbuf  []heap.Value
}

// NewMachine creates a machine for prog with a fresh heap. c, when it was
// built from prog, is adopted instead of compiling (Precompile); nil is
// fine. Register externs and a migration handler, then call Start.
func NewMachine(prog *fir.Program, c *Compiled, cfg rt.Config) *Machine {
	m, _ := ResumeMachine(prog, nil, nil, c, cfg) // no continuation stack to reject
	return m
}

// ResumeMachine builds a machine around a restored heap and speculation
// continuation stack — the unpack resume path, continued by StartAt.
func ResumeMachine(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, c *Compiled, cfg rt.Config) (*Machine, error) {
	m := &Machine{c: c, argbuf: make([]heap.Value, 0, 8)}
	if err := m.Init(m, prog, h, conts, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Roots implements rt.Core: the live frame slots of the current
// instruction — the same depth-windowed root set as the interpreter's, so
// collection liveness matches it.
func (m *Machine) Roots(yield func(heap.Value)) {
	if m.code != nil && m.pc < len(m.code) {
		for _, v := range m.frame[:m.code[m.pc].depth] {
			yield(v)
		}
	}
}

// Load implements rt.Core: it compiles the program to threaded code (or
// adopts the precompiled artifact), sizes the frame and fills its
// constant area.
func (m *Machine) Load() ([]string, error) {
	if m.c == nil || m.c.prog != m.Program() {
		c, err := Precompile(m.Program())
		if err != nil {
			return nil, err
		}
		m.c = c
	}
	m.code = m.c.code
	m.frame = make([]heap.Value, m.c.slots)
	copy(m.frame[m.c.constBase:], m.c.consts)
	return m.c.extNames, nil
}

// Invoke implements rt.Core: it positions the machine at function fnIdx
// with args bound to its parameter slots, applying the runtime type checks
// on every value: the compile-time tag when it decides, the generic check
// otherwise.
func (m *Machine) Invoke(fnIdx int64, args []heap.Value) error {
	fns := m.c.fns
	if fnIdx < 0 || fnIdx >= int64(len(fns)) {
		_, err := m.Program().FuncByIndex(int(fnIdx))
		return err
	}
	f := &fns[fnIdx]
	ok := len(args) == len(f.kinds)
	for i := 0; ok && i < len(args); i++ {
		ok = args[i].Kind == f.kinds[i] && f.kinds[i] != kindSlow
	}
	if !ok {
		if err := rt.CheckArgs(f.fn, args); err != nil {
			return err
		}
	}
	copy(m.frame[:len(args)], args)
	m.pc = f.entry
	m.CurFn = f.fn.Name
	return nil
}

// gatherIns reads an instruction's operand list into the reused scratch
// buffer; valid until the next gather.
func (m *Machine) gatherIns(in *ins) []heap.Value {
	if in.args == nil {
		for i := 0; i < int(in.nargs); i++ {
			switch i {
			case 0:
				m.evalbuf[0] = m.frame[in.a]
			case 1:
				m.evalbuf[1] = m.frame[in.b]
			case 2:
				m.evalbuf[2] = m.frame[in.c]
			}
		}
		return m.evalbuf[:in.nargs]
	}
	return m.gather(in.args)
}

func (m *Machine) gather(args []operand) []heap.Value {
	if cap(m.argbuf) < len(args) {
		m.argbuf = make([]heap.Value, len(args))
	}
	buf := m.argbuf[:len(args)]
	for i := range args {
		buf[i] = m.frame[args[i]]
	}
	return buf
}

// loadErr is the interpreter's error for a proven load that TryLoad
// refused (ok false: Load says why) or whose word has the wrong kind.
func (m *Machine) loadErr(in *ins, v heap.Value, ok bool) error {
	if !ok {
		_, err := m.Heap().Load(m.frame[in.a], m.frame[in.b].I)
		return m.RuntimeErr(err)
	}
	return m.RuntimeErr(ops.CheckKind(v, in.dstTy))
}

// evalGen executes one Let node through the generic ops.Eval path — the
// fallback whenever a fast-path precondition fails, reproducing the
// interpreter's evaluation order and error text exactly.
func (m *Machine) evalGen(in *ins) error {
	args := m.gatherIns(in)
	v, err := ops.Eval(m.Heap(), in.alu, args, in.dstTy)
	if err != nil {
		return m.RuntimeErr(err)
	}
	m.frame[in.dst] = v
	return nil
}
