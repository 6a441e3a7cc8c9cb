package jit

import (
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/ops"
	"repro/internal/rt"
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// branch completes a proven compare-and-branch at pc: it writes the
// compare's result and returns where control goes — past both components
// when the branch is taken.
func branch(frame []heap.Value, in *ins, pc int, taken bool) int {
	frame[in.dst] = heap.BoolVal(taken)
	if taken {
		return pc + 3
	}
	return int(in.target)
}

// RunSeg implements rt.Core.
func (m *Machine) RunSeg(budget uint64) error {
	exec, err := m.runSeg(budget)
	m.Charge(exec)
	return err
}

// runSeg executes up to budget FIR nodes starting at m.pc and returns how
// many of them it has not charged yet (including a node that errored — the
// interpreter charges failed steps too). m.pc is stored before every node
// that can reach the collector, trap or leave the loop, so GC root windows
// match the interpreter's exactly; the pure forms skip the store. On
// return m.pc points at the next node (or the failed one).
//
// Kind-specialised forms run where the compiler has proven every
// operand's kind and test no tag. In the generic forms, fast paths handle
// the common well-typed cases inline; any precondition
// miss (wrong operand kind, division by zero, shift range) falls back to
// the generic ops.Eval path so error text and evaluation order stay
// identical to the interpreter's. Fused superinstructions execute only
// when the remaining budget covers all their nodes and their runtime
// preconditions hold; otherwise they delegate to their unfused component
// instructions, which immediately follow them in the stream.
func (m *Machine) runSeg(budget uint64) (uint64, error) {
	code := m.code
	frame := m.frame
	fns := m.c.fns
	h := m.Heap()
	pc := m.pc
	var exec uint64

	for exec < budget {
		in := &code[pc]
		switch in.op {
		// --- kind-specialised forms: every operand's kind is proven, so
		// each reads its payload directly; m.pc is stored only before a
		// fallback that may trap or collect ---

		case jAddK:
			frame[in.dst] = heap.IntVal(frame[in.a].I + frame[in.b].I)
			pc++
			exec++

		case jSubK:
			frame[in.dst] = heap.IntVal(frame[in.a].I - frame[in.b].I)
			pc++
			exec++

		case jMulK:
			frame[in.dst] = heap.IntVal(frame[in.a].I * frame[in.b].I)
			pc++
			exec++

		case jAndK:
			frame[in.dst] = heap.IntVal(frame[in.a].I & frame[in.b].I)
			pc++
			exec++

		case jOrK:
			frame[in.dst] = heap.IntVal(frame[in.a].I | frame[in.b].I)
			pc++
			exec++

		case jXorK:
			frame[in.dst] = heap.IntVal(frame[in.a].I ^ frame[in.b].I)
			pc++
			exec++

		case jEqK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I == frame[in.b].I))
			pc++
			exec++

		case jNeK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I != frame[in.b].I))
			pc++
			exec++

		case jLtK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I < frame[in.b].I))
			pc++
			exec++

		case jLeK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I <= frame[in.b].I))
			pc++
			exec++

		case jGtK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I > frame[in.b].I))
			pc++
			exec++

		case jGeK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I >= frame[in.b].I))
			pc++
			exec++

		case jNegK:
			frame[in.dst] = heap.IntVal(-frame[in.a].I)
			pc++
			exec++

		case jNotK:
			frame[in.dst] = heap.IntVal(b2i(frame[in.a].I == 0))
			pc++
			exec++

		case jDivK:
			if d := frame[in.b].I; d != 0 {
				frame[in.dst] = heap.IntVal(frame[in.a].I / d)
			} else {
				m.pc = pc // division by zero: ops.Eval says so
				if err := m.evalGen(in); err != nil {
					return exec + 1, err
				}
			}
			pc++
			exec++

		case jModK:
			if d := frame[in.b].I; d != 0 {
				frame[in.dst] = heap.IntVal(frame[in.a].I % d)
			} else {
				m.pc = pc // division by zero: ops.Eval says so
				if err := m.evalGen(in); err != nil {
					return exec + 1, err
				}
			}
			pc++
			exec++

		case jShlK:
			if n := frame[in.b].I; uint64(n) <= 63 {
				frame[in.dst] = heap.IntVal(frame[in.a].I << uint(n))
			} else {
				m.pc = pc // shift out of range: ops.Eval says so
				if err := m.evalGen(in); err != nil {
					return exec + 1, err
				}
			}
			pc++
			exec++

		case jShrK:
			if n := frame[in.b].I; uint64(n) <= 63 {
				frame[in.dst] = heap.IntVal(frame[in.a].I >> uint(n))
			} else {
				m.pc = pc // shift out of range: ops.Eval says so
				if err := m.evalGen(in); err != nil {
					return exec + 1, err
				}
			}
			pc++
			exec++

		case jFAddK:
			frame[in.dst] = heap.FloatVal(frame[in.a].F + frame[in.b].F)
			pc++
			exec++

		case jFSubK:
			frame[in.dst] = heap.FloatVal(frame[in.a].F - frame[in.b].F)
			pc++
			exec++

		case jFMulK:
			frame[in.dst] = heap.FloatVal(frame[in.a].F * frame[in.b].F)
			pc++
			exec++

		case jFDivK:
			frame[in.dst] = heap.FloatVal(frame[in.a].F / frame[in.b].F)
			pc++
			exec++

		case jFEqK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F == frame[in.b].F)
			pc++
			exec++

		case jFNeK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F != frame[in.b].F)
			pc++
			exec++

		case jFLtK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F < frame[in.b].F)
			pc++
			exec++

		case jFLeK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F <= frame[in.b].F)
			pc++
			exec++

		case jFGtK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F > frame[in.b].F)
			pc++
			exec++

		case jFGeK:
			frame[in.dst] = heap.BoolVal(frame[in.a].F >= frame[in.b].F)
			pc++
			exec++

		case jFNegK:
			frame[in.dst] = heap.FloatVal(-frame[in.a].F)
			pc++
			exec++

		case jItoFK:
			frame[in.dst] = heap.FloatVal(float64(frame[in.a].I))
			pc++
			exec++

		case jFtoIK:
			frame[in.dst] = heap.IntVal(int64(frame[in.a].F))
			pc++
			exec++

		case jIfK:
			if frame[in.a].I != 0 {
				pc++
			} else {
				pc = int(in.target)
			}
			exec++

		case jLoadK:
			v, ok := h.TryLoad(frame[in.a], frame[in.b].I)
			if !ok || v.Kind != in.want {
				m.pc = pc
				return exec + 1, m.loadErr(in, v, ok)
			}
			frame[in.dst] = v
			pc++
			exec++

		case jStoreK:
			if !h.TryStore(frame[in.a], frame[in.b].I, frame[in.c]) {
				// The full store may fail: pc must name this node, as
				// for every fallible instruction.
				m.pc = pc
				if err := h.Store(frame[in.a], frame[in.b].I, frame[in.c]); err != nil {
					return exec + 1, m.RuntimeErr(err)
				}
			}
			frame[in.dst] = heap.UnitVal()
			pc++
			exec++

		// Proven compare-and-branch: only a quantum too short for both
		// nodes sends it to its components.
		case jCmpBrEqK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I == frame[in.b].I)
			exec += 2

		case jCmpBrNeK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I != frame[in.b].I)
			exec += 2

		case jCmpBrLtK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I < frame[in.b].I)
			exec += 2

		case jCmpBrLeK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I <= frame[in.b].I)
			exec += 2

		case jCmpBrGtK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I > frame[in.b].I)
			exec += 2

		case jCmpBrGeK:
			if budget-exec < 2 {
				pc++
				continue
			}
			pc = branch(frame, in, pc, frame[in.a].I >= frame[in.b].I)
			exec += 2

		// --- generic forms: an operand's kind is checked at run time ---

		case jAdd, jSub, jMul, jAnd, jOr, jXor, jEq, jNe, jLt, jLe, jGt, jGe:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KInt && b.Kind == heap.KInt {
				var v int64
				switch in.op {
				case jAdd:
					v = a.I + b.I
				case jSub:
					v = a.I - b.I
				case jMul:
					v = a.I * b.I
				case jAnd:
					v = a.I & b.I
				case jOr:
					v = a.I | b.I
				case jXor:
					v = a.I ^ b.I
				case jEq:
					v = b2i(a.I == b.I)
				case jNe:
					v = b2i(a.I != b.I)
				case jLt:
					v = b2i(a.I < b.I)
				case jLe:
					v = b2i(a.I <= b.I)
				case jGt:
					v = b2i(a.I > b.I)
				case jGe:
					v = b2i(a.I >= b.I)
				}
				frame[in.dst] = heap.IntVal(v)
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jDiv, jMod, jShl, jShr:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			ok := a.Kind == heap.KInt && b.Kind == heap.KInt
			if ok {
				switch in.op {
				case jDiv, jMod:
					ok = b.I != 0
				case jShl, jShr:
					ok = b.I >= 0 && b.I <= 63
				}
			}
			if ok {
				var v int64
				switch in.op {
				case jDiv:
					v = a.I / b.I
				case jMod:
					v = a.I % b.I
				case jShl:
					v = a.I << uint(b.I)
				case jShr:
					v = a.I >> uint(b.I)
				}
				frame[in.dst] = heap.IntVal(v)
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jNeg, jNot:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KInt {
				if in.op == jNeg {
					frame[in.dst] = heap.IntVal(-a.I)
				} else {
					frame[in.dst] = heap.IntVal(b2i(a.I == 0))
				}
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jFAdd, jFSub, jFMul, jFDiv, jFEq, jFNe, jFLt, jFLe, jFGt, jFGe:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KFloat && b.Kind == heap.KFloat {
				switch in.op {
				case jFAdd:
					frame[in.dst] = heap.FloatVal(a.F + b.F)
				case jFSub:
					frame[in.dst] = heap.FloatVal(a.F - b.F)
				case jFMul:
					frame[in.dst] = heap.FloatVal(a.F * b.F)
				case jFDiv:
					frame[in.dst] = heap.FloatVal(a.F / b.F)
				case jFEq:
					frame[in.dst] = heap.BoolVal(a.F == b.F)
				case jFNe:
					frame[in.dst] = heap.BoolVal(a.F != b.F)
				case jFLt:
					frame[in.dst] = heap.BoolVal(a.F < b.F)
				case jFLe:
					frame[in.dst] = heap.BoolVal(a.F <= b.F)
				case jFGt:
					frame[in.dst] = heap.BoolVal(a.F > b.F)
				case jFGe:
					frame[in.dst] = heap.BoolVal(a.F >= b.F)
				}
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jFNeg:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KFloat {
				frame[in.dst] = heap.FloatVal(-a.F)
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jItoF:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KInt {
				frame[in.dst] = heap.FloatVal(float64(a.I))
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jFtoI:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KFloat {
				frame[in.dst] = heap.IntVal(int64(a.F))
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jMove:
			frame[in.dst] = frame[in.a]
			pc++
			exec++

		case jAlloc:
			m.pc = pc
			if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jLoad:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KPtr && b.Kind == heap.KInt && in.want != kindSlow {
				v, err := h.Load(a, b.I)
				if err != nil {
					return exec + 1, m.RuntimeErr(err)
				}
				if v.Kind != in.want {
					return exec + 1, m.RuntimeErr(ops.CheckKind(v, in.dstTy))
				}
				frame[in.dst] = v
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jStore:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KPtr && b.Kind == heap.KInt {
				if err := h.Store(a, b.I, frame[in.c]); err != nil {
					return exec + 1, m.RuntimeErr(err)
				}
				frame[in.dst] = heap.UnitVal()
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jLen:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KPtr {
				n, err := h.BlockSize(a)
				if err != nil {
					return exec + 1, m.RuntimeErr(err)
				}
				frame[in.dst] = heap.IntVal(n)
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jPtrAdd:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KPtr && b.Kind == heap.KInt {
				a.Off += b.I
				frame[in.dst] = a
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jPtrBase:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KPtr {
				a.Off = 0
				frame[in.dst] = a
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jPtrOff:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KPtr {
				frame[in.dst] = heap.IntVal(a.Off)
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jPtrEq:
			m.pc = pc
			a, b := frame[in.a], frame[in.b]
			if a.Kind == heap.KPtr && b.Kind == heap.KPtr {
				frame[in.dst] = heap.BoolVal(a.Equal(b))
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		case jPtrNull:
			frame[in.dst] = heap.Null()
			pc++
			exec++

		case jPtrIsNil:
			m.pc = pc
			a := frame[in.a]
			if a.Kind == heap.KPtr {
				frame[in.dst] = heap.BoolVal(a.IsNull())
			} else if err := m.evalGen(in); err != nil {
				return exec + 1, err
			}
			pc++
			exec++

		// --- fused superinstructions ---

		case jCmpBr:
			// Covers the compare and the branch. Delegate to the components
			// (immediately following) when the quantum cannot cover both
			// nodes or an operand is not an int.
			if uint64(in.nodes) > budget-exec {
				pc++
				continue
			}
			a, b := frame[in.a], frame[in.b]
			if a.Kind != heap.KInt || b.Kind != heap.KInt {
				pc++
				continue
			}
			var t bool
			switch in.alu {
			case fir.OpEq:
				t = a.I == b.I
			case fir.OpNe:
				t = a.I != b.I
			case fir.OpLt:
				t = a.I < b.I
			case fir.OpLe:
				t = a.I <= b.I
			case fir.OpGt:
				t = a.I > b.I
			case fir.OpGe:
				t = a.I >= b.I
			}
			frame[in.dst] = heap.IntVal(b2i(t))
			exec += 2
			if t {
				pc += 3 // skip the two components
			} else {
				pc = int(in.target)
			}

		case jLoadRun:
			n := uint64(in.nodes)
			if n > budget-exec {
				pc++
				continue
			}
			base := frame[in.a]
			if base.Kind != heap.KPtr {
				pc++
				continue
			}
			for i := range in.run {
				el := &in.run[i]
				v, err := h.Load(base, el.off)
				if err != nil {
					m.pc = pc + 1 + i
					return exec + uint64(i) + 1, m.RuntimeErr(err)
				}
				if v.Kind != el.want {
					m.pc = pc + 1 + i
					return exec + uint64(i) + 1, m.RuntimeErr(ops.CheckKind(v, el.ty))
				}
				frame[el.dst] = v
			}
			pc += 1 + len(in.run)
			exec += n

		case jStoreRun:
			n := uint64(in.nodes)
			if n > budget-exec {
				pc++
				continue
			}
			base := frame[in.a]
			if base.Kind != heap.KPtr {
				pc++
				continue
			}
			for i := range in.run {
				el := &in.run[i]
				// A store may fail: point pc at the component it came
				// from.
				m.pc = pc + 1 + i
				v := frame[el.val]
				if err := h.Store(base, el.off, v); err != nil {
					return exec + uint64(i) + 1, m.RuntimeErr(err)
				}
				frame[el.dst] = heap.UnitVal()
			}
			pc += 1 + len(in.run)
			exec += n

		// --- control ---

		case jIf:
			m.pc = pc
			c := frame[in.a]
			if c.Kind != heap.KInt {
				return exec + 1, m.RuntimeErrf("if condition is %s, want int", c.Kind)
			}
			if c.I != 0 {
				pc++
			} else {
				pc = int(in.target)
			}
			exec++

		case jCall:
			m.pc = pc
			fnv := frame[in.a]
			if fnv.Kind != heap.KFun {
				return exec + 1, m.RuntimeErrf("call target is %s, want fun", fnv)
			}
			if err := m.Invoke(fnv.I, m.gather(in.args)); err != nil {
				return exec + 1, m.RuntimeErr(err)
			}
			pc = m.pc
			exec++

		case jCallKnown:
			// Callee and arity were resolved at compile time. The arguments
			// whose kind is not proven are checked first, in argument order
			// and with invoke's error text; then the planned moves write the
			// callee's parameter slots.
			f := &fns[in.target]
			for i := range in.run {
				el := &in.run[i]
				if v := frame[el.val]; v.Kind != el.want || el.want == kindSlow {
					if err := ops.CheckKind(v, el.ty); err != nil {
						m.pc = pc
						return exec + 1, m.RuntimeErr(rt.ArgError(f.fn, int(el.dst), err))
					}
				}
			}
			for i := range in.moves {
				mv := &in.moves[i]
				frame[mv.dst] = frame[mv.src]
			}
			m.CurFn = f.fn.Name
			pc = f.entry
			exec++

		// Extern calls and the shell's control transfers. Code outside
		// the engine may run in these and read Steps: charge everything
		// up to and including this node first. Each either fails, stops
		// the machine, or leaves m.pc at the node to continue with.
		case jExtern, jHalt, jSpeculate, jCommit, jRollback, jMigrate:
			m.pc = pc
			m.Charge(exec + 1)
			budget -= exec + 1
			exec = 0
			var err error
			switch in.op {
			case jExtern:
				var v heap.Value
				if v, err = m.CallExtern(in.extIdx, m.gather(in.args)); err == nil {
					frame[in.dst] = v
					m.pc = pc + 1
				}
			case jHalt:
				err = m.Halt(frame[in.a])
			case jSpeculate:
				err = m.Speculate(frame[in.a], m.gather(in.args))
			case jCommit:
				err = m.Commit(frame[in.a], frame[in.b], m.gather(in.args))
			case jRollback:
				err = m.Rollback(frame[in.a], frame[in.b])
			case jMigrate:
				err = m.Migrate(int(in.target), frame[in.a], frame[in.b], frame[in.c], m.gather(in.args))
			}
			if err != nil || m.Status() != rt.StatusRunning || m.Yielding() {
				return 0, err
			}
			pc = m.pc

		default:
			m.pc = pc
			return exec + 1, m.RuntimeErrf("unknown opcode %d", in.op)
		}
	}
	m.pc = pc
	return exec, nil
}
