// Package jit implements the threaded-code execution engine: the fast
// engine behind internal/engine's registry, next to the slot-resolved
// interpreter ("vm") it is tested against. It is what carries the paper's
// "machine-code runtime" story here: FIR, never native code, crosses a
// migration, and the target recompiles it for its own engine.
//
// The compiler lowers FIR to the same slot-resolved linear shape as the
// interpreter — one instruction per FIR node, variables resolved to dense
// frame slots, literal operands interned into the instruction stream at
// compile time — but with two executable differences:
//
//   - every instruction carries a specialized opcode resolved at compile
//     time (one per FIR operator), so the machine's next-instruction loop
//     dispatches straight to an inlined body instead of re-deciding the
//     operator per step through ops.Eval;
//   - a fusion pass rewrites the hot sequences the workload kernels
//     actually emit — integer compare-and-branch pairs, and the runs of
//     constant-offset loads (closure environment unpacking) and stores
//     (closure construction) against a single base pointer — into single
//     superinstructions covering several FIR nodes each.
//
// Bit-exactness contract (shared with vm): a fused instruction
// still charges exactly one step and one fuel unit per FIR node it covers,
// and can only begin when the remaining quantum covers all of its nodes.
// Each fused superinstruction is therefore emitted in front of its
// unfused component instructions: when the quantum or the fuel would
// expire mid-fusion, or a runtime precondition fails, execution drops into
// the components and proceeds one node at a time, yielding, failing and
// resuming at exactly the boundaries the interpreter would. Branches into
// the middle of a fused region land on the components as well, so control
// transfers never observe the fusion.
package jit

import (
	"fmt"
	"maps"

	"repro/internal/fir"
	"repro/internal/heap"
)

// jop is a specialized opcode. The first block mirrors fir.Op value for
// value, so Let bindings translate by cast; the rest are control and the
// fused superinstructions.
type jop uint8

const (
	jAdd jop = iota // mirrors fir.OpAdd…fir.OpMove
	jSub
	jMul
	jDiv
	jMod
	jNeg
	jAnd
	jOr
	jXor
	jNot
	jShl
	jShr
	jEq
	jNe
	jLt
	jLe
	jGt
	jGe
	jFAdd
	jFSub
	jFMul
	jFDiv
	jFNeg
	jFEq
	jFNe
	jFLt
	jFLe
	jFGt
	jFGe
	jItoF
	jFtoI
	jAlloc
	jLoad
	jStore
	jLen
	jPtrAdd
	jPtrBase
	jPtrOff
	jPtrEq
	jPtrNull
	jPtrIsNil
	jMove

	jExtern
	jIf
	jCall
	jHalt
	jSpeculate
	jCommit
	jRollback
	jMigrate

	// Fused superinstructions. Each precedes its unfused components in
	// the stream and covers nodes FIR nodes.
	jCmpBr    // integer compare + branch on the result
	jLoadRun  // ≥2 constant-offset loads off one base pointer
	jStoreRun // ≥2 constant-offset stores against one base pointer

	// jCallKnown is a jCall whose callee is a function literal with
	// matching arity and whose arguments can be written into the callee
	// frame in place (no clobbered reads). FIR lowers loops to tail
	// calls, so this is the hot call form; target holds the function
	// index resolved at compile time.
	jCallKnown
)

// kindSlow marks a load destination type the fast path cannot reduce to a
// single runtime tag; the generic ops.Eval path handles it.
const kindSlow heap.Kind = 0xFF

// operand is a resolved operand: a frame slot or an interned immediate.
type operand struct {
	slot int32 // >= 0: frame slot; < 0: immediate
	imm  heap.Value
}

// runElem is one element of a fused load or store run.
type runElem struct {
	off  int64     // constant word offset
	dst  int32     // destination slot (load: the value; store: the unit binding)
	val  operand   // store: the value operand, read at element time
	want heap.Kind // load: expected result tag (kindSlow: check generically)
	ty   fir.Type  // load: declared type, for exact error text
}

// ins is one instruction. nodes is the number of FIR nodes it covers
// (fused forms > 1); depth is the live-slot window while it executes —
// the GC root set, exactly as in the interpreter.
type ins struct {
	op      jop
	nodes   uint8
	nargs   uint8
	want    heap.Kind // jLoad: expected result tag
	alu     fir.Op
	dstTy   fir.Type
	dst     int32
	depth   int32
	target  int32 // jIf/jCmpBr: branch-not-taken pc; jMigrate: label
	extIdx  int32
	a, b, c operand
	args    []operand
	run     []runElem
}

// jitFn is one function's compiled view. kinds caches each parameter's
// expected runtime tag so invoke checks arguments without re-deriving the
// tag from the FIR type per call (kindSlow delegates to ops.CheckKind).
type jitFn struct {
	entry int
	fn    *fir.Function
	kinds []heap.Kind
}

// Compiled is an opaque compiled program. It is immutable after
// construction and may be shared by any number of machines created from
// the same (unmutated) fir.Program — the cluster engine compiles once and
// fans the artifact out to every node.
type Compiled struct {
	prog     *fir.Program
	code     []ins
	fns      []jitFn
	extNames []string
	slots    int
}

// Precompile lowers prog to threaded code without building a machine; hand
// the result to NewMachine or ResumeMachine to skip per-machine
// compilation. It runs the two lowering passes: the slot-resolving walk
// (one instruction per FIR node, identical structure to the interpreter's)
// and the fusion rewrite.
func Precompile(prog *fir.Program) (*Compiled, error) {
	c := &Compiled{prog: prog, fns: make([]jitFn, len(prog.Funcs))}
	extIdx := make(map[string]int32)
	for i, f := range prog.Funcs {
		kinds := make([]heap.Kind, len(f.Params))
		for j, prm := range f.Params {
			kinds[j] = wantKind(prm.Type)
		}
		c.fns[i] = jitFn{entry: len(c.code), fn: f, kinds: kinds}
		fc := &fnCompiler{prog: prog, c: c, fn: f, extIdx: extIdx}
		env := make(map[string]int32, len(f.Params))
		for j, prm := range f.Params {
			env[prm.Name] = int32(j)
		}
		if err := fc.expr(f.Body, env, int32(len(f.Params))); err != nil {
			return nil, err
		}
	}
	fuse(c)
	return c, nil
}

type fnCompiler struct {
	prog   *fir.Program
	c      *Compiled
	fn     *fir.Function
	extIdx map[string]int32 // shared across functions: extern table is per program
}

func (fc *fnCompiler) extern(name string) int32 {
	if i, ok := fc.extIdx[name]; ok {
		return i
	}
	i := int32(len(fc.c.extNames))
	fc.c.extNames = append(fc.c.extNames, name)
	fc.extIdx[name] = i
	return i
}

func (fc *fnCompiler) grow(depth int32) {
	if int(depth) > fc.c.slots {
		fc.c.slots = int(depth)
	}
}

func (fc *fnCompiler) atom(a fir.Atom, env map[string]int32) (operand, error) {
	switch a := a.(type) {
	case fir.Var:
		s, ok := env[a.Name]
		if !ok {
			return operand{}, fmt.Errorf("jit: unbound variable %q in %s", a.Name, fc.fn.Name)
		}
		return operand{slot: s}, nil
	case fir.IntLit:
		return operand{slot: -1, imm: heap.IntVal(a.V)}, nil
	case fir.FloatLit:
		return operand{slot: -1, imm: heap.FloatVal(a.V)}, nil
	case fir.FunLit:
		_, idx := fc.prog.Lookup(a.Name)
		if idx < 0 {
			return operand{}, fmt.Errorf("jit: undefined function %q in %s", a.Name, fc.fn.Name)
		}
		return operand{slot: -1, imm: heap.FunVal(int64(idx))}, nil
	case fir.UnitLit:
		return operand{slot: -1, imm: heap.UnitVal()}, nil
	default:
		return operand{}, fmt.Errorf("jit: unknown atom %T in %s", a, fc.fn.Name)
	}
}

// knownCall reports whether a call can use the jCallKnown fast path: the
// callee is a function literal with matching arity, and writing argument
// i into frame slot i never clobbers a slot a later argument still reads
// — every operand is an immediate or reads a slot at or above its own
// argument position. Tail calls that pass loop state forward in the same
// slots satisfy this by construction.
func (fc *fnCompiler) knownCall(fa operand, args []operand) (int32, bool) {
	if fa.slot >= 0 || fa.imm.Kind != heap.KFun {
		return 0, false
	}
	idx := fa.imm.I
	if idx < 0 || idx >= int64(len(fc.prog.Funcs)) {
		return 0, false
	}
	if len(fc.prog.Funcs[idx].Params) != len(args) {
		return 0, false
	}
	for i, a := range args {
		if a.slot >= 0 && a.slot < int32(i) {
			return 0, false
		}
	}
	return int32(idx), true
}

func (fc *fnCompiler) atoms(as []fir.Atom, env map[string]int32) ([]operand, error) {
	if len(as) == 0 {
		return nil, nil
	}
	out := make([]operand, len(as))
	for i, a := range as {
		fa, err := fc.atom(a, env)
		if err != nil {
			return nil, err
		}
		out[i] = fa
	}
	return out, nil
}

// bind assigns the destination slot for a binding. A rebound name reuses
// its existing slot, so the shadowed value leaves the GC root window
// exactly when the interpreter's map overwrite would drop it.
func (fc *fnCompiler) bind(env map[string]int32, name string, depth int32) (map[string]int32, int32, int32) {
	if s, ok := env[name]; ok {
		return env, s, depth
	}
	env[name] = depth
	return env, depth, depth + 1
}

func (in *ins) setABC(i int, fa operand) {
	switch i {
	case 0:
		in.a = fa
	case 1:
		in.b = fa
	case 2:
		in.c = fa
	}
}

// wantKind reduces a FIR type to the runtime tag a load result must carry.
func wantKind(t fir.Type) heap.Kind {
	switch t.Kind {
	case fir.KindInt:
		return heap.KInt
	case fir.KindFloat:
		return heap.KFloat
	case fir.KindPtr:
		return heap.KPtr
	case fir.KindFun:
		return heap.KFun
	case fir.KindUnit:
		return heap.KUnit
	default:
		return kindSlow
	}
}

func (fc *fnCompiler) expr(e fir.Expr, env map[string]int32, depth int32) error {
	fc.grow(depth)
	for {
		switch e2 := e.(type) {
		case fir.Let:
			in := ins{op: jop(e2.Op), nodes: 1, alu: e2.Op, dstTy: e2.DstType, depth: depth}
			if e2.Op == fir.OpLoad {
				in.want = wantKind(e2.DstType)
			}
			if n := len(e2.Args); n <= 3 {
				in.nargs = uint8(n)
				for i, a := range e2.Args {
					fa, err := fc.atom(a, env)
					if err != nil {
						return err
					}
					in.setABC(i, fa)
				}
			} else {
				args, err := fc.atoms(e2.Args, env)
				if err != nil {
					return err
				}
				in.args = args
			}
			env, in.dst, depth = fc.bind(env, e2.Dst, depth)
			fc.grow(depth)
			fc.emit(in)
			e = e2.Body

		case fir.Extern:
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			in := ins{op: jExtern, nodes: 1, dstTy: e2.DstType, depth: depth, extIdx: fc.extern(e2.Name), args: args}
			env, in.dst, depth = fc.bind(env, e2.Dst, depth)
			fc.grow(depth)
			fc.emit(in)
			e = e2.Body

		case fir.If:
			ca, err := fc.atom(e2.Cond, env)
			if err != nil {
				return err
			}
			pos := len(fc.c.code)
			fc.emit(ins{op: jIf, nodes: 1, a: ca, depth: depth})
			// The then branch gets a clone so its bindings stay invisible
			// to the else branch; bind can then mutate in place.
			if err := fc.expr(e2.Then, maps.Clone(env), depth); err != nil {
				return err
			}
			fc.c.code[pos].target = int32(len(fc.c.code))
			e = e2.Else

		case fir.Call:
			fa, err := fc.atom(e2.Fn, env)
			if err != nil {
				return err
			}
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			if idx, ok := fc.knownCall(fa, args); ok {
				fc.emit(ins{op: jCallKnown, nodes: 1, target: idx, a: fa, args: args, depth: depth})
			} else {
				fc.emit(ins{op: jCall, nodes: 1, a: fa, args: args, depth: depth})
			}
			return nil

		case fir.Halt:
			ca, err := fc.atom(e2.Code, env)
			if err != nil {
				return err
			}
			fc.emit(ins{op: jHalt, nodes: 1, a: ca, depth: depth})
			return nil

		case fir.Speculate:
			fa, err := fc.atom(e2.Fn, env)
			if err != nil {
				return err
			}
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			fc.emit(ins{op: jSpeculate, nodes: 1, a: fa, args: args, depth: depth})
			return nil

		case fir.Commit:
			la, err := fc.atom(e2.Level, env)
			if err != nil {
				return err
			}
			fa, err := fc.atom(e2.Fn, env)
			if err != nil {
				return err
			}
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			fc.emit(ins{op: jCommit, nodes: 1, a: la, b: fa, args: args, depth: depth})
			return nil

		case fir.Rollback:
			la, err := fc.atom(e2.Level, env)
			if err != nil {
				return err
			}
			ca, err := fc.atom(e2.C, env)
			if err != nil {
				return err
			}
			fc.emit(ins{op: jRollback, nodes: 1, a: la, b: ca, depth: depth})
			return nil

		case fir.Migrate:
			ta, err := fc.atom(e2.Target, env)
			if err != nil {
				return err
			}
			oa, err := fc.atom(e2.TargetOff, env)
			if err != nil {
				return err
			}
			fa, err := fc.atom(e2.Fn, env)
			if err != nil {
				return err
			}
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			fc.emit(ins{op: jMigrate, nodes: 1, a: ta, b: oa, c: fa, target: int32(e2.Label), args: args, depth: depth})
			return nil

		default:
			return fmt.Errorf("jit: unknown expression %T in %s", e2, fc.fn.Name)
		}
	}
}

func (fc *fnCompiler) emit(in ins) {
	fc.c.code = append(fc.c.code, in)
}

// ---------------------------------------------------------------------------
// Fusion pass.

// maxRun bounds fused load/store runs so a single superinstruction never
// out-sizes a scheduling quantum by orders of magnitude.
const maxRun = 64

func isIntCmp(op jop) bool { return op >= jEq && op <= jGe }

// cmpBrAt reports whether the two instructions starting at pc form a
// fusible integer compare-and-branch pair: the branch tests exactly the
// slot the compare wrote.
func cmpBrAt(code []ins, pc int) bool {
	if pc+1 >= len(code) {
		return false
	}
	cmp, br := &code[pc], &code[pc+1]
	return isIntCmp(cmp.op) && br.op == jIf && br.a.slot == cmp.dst
}

// loadRunAt returns the length (≥2) of the maximal fusible load run
// starting at pc, or 0. Elements load constant offsets off one base slot;
// an element whose destination overwrites the base ends the run with it.
func loadRunAt(code []ins, pc int) int {
	first := &code[pc]
	if first.op != jLoad || first.a.slot < 0 || first.b.slot >= 0 || first.b.imm.Kind != heap.KInt || first.want == kindSlow || first.want == heap.KUnit {
		return 0
	}
	base := first.a.slot
	n := 0
	for pc+n < len(code) && n < maxRun {
		in := &code[pc+n]
		if in.op != jLoad || in.a.slot != base || in.b.slot >= 0 || in.b.imm.Kind != heap.KInt || in.want == kindSlow || in.want == heap.KUnit {
			break
		}
		n++
		if in.dst == base {
			break
		}
	}
	if n < 2 {
		return 0
	}
	return n
}

// storeRunAt returns the length (≥2) of the maximal fusible store run
// starting at pc, or 0. Value operands are read per element at execution
// time, so stores may consume slots earlier elements bound.
func storeRunAt(code []ins, pc int) int {
	first := &code[pc]
	if first.op != jStore || first.a.slot < 0 || first.b.slot >= 0 || first.b.imm.Kind != heap.KInt {
		return 0
	}
	base := first.a.slot
	n := 0
	for pc+n < len(code) && n < maxRun {
		in := &code[pc+n]
		if in.op != jStore || in.a.slot != base || in.b.slot >= 0 || in.b.imm.Kind != heap.KInt {
			break
		}
		n++
		if in.dst == base {
			break
		}
	}
	if n < 2 {
		return 0
	}
	return n
}

// fuse rewrites the linear stream, emitting superinstructions ahead of
// their unfused components and remapping branch targets and function
// entries. The old→new map points every old node at the first slot
// emitted for it, so branches into a fused region land on components and
// execute node by node.
func fuse(c *Compiled) {
	old := c.code
	out := make([]ins, 0, len(old)+len(old)/8)
	remap := make([]int32, len(old)+1)

	for pc := 0; pc < len(old); {
		switch {
		case cmpBrAt(old, pc):
			cmp, br := old[pc], old[pc+1]
			fusedTo := len(out)
			fused := cmp
			fused.op = jCmpBr
			fused.nodes = 2
			fused.target = br.target // remapped below, in old coordinates
			out = append(out, fused)
			remap[pc] = int32(fusedTo)
			remap[pc+1] = int32(len(out) + 1) // the branch component
			out = append(out, cmp, br)
			pc += 2

		case loadRunAt(old, pc) > 0:
			n := loadRunAt(old, pc)
			fused := ins{op: jLoadRun, nodes: uint8(n), a: old[pc].a, depth: old[pc].depth, run: make([]runElem, n)}
			for i := 0; i < n; i++ {
				el := &old[pc+i]
				fused.run[i] = runElem{off: el.b.imm.I, dst: el.dst, want: el.want, ty: el.dstTy}
				remap[pc+i] = int32(len(out) + 1 + i)
			}
			remap[pc] = int32(len(out))
			out = append(out, fused)
			out = append(out, old[pc:pc+n]...)
			pc += n

		case storeRunAt(old, pc) > 0:
			n := storeRunAt(old, pc)
			fused := ins{op: jStoreRun, nodes: uint8(n), a: old[pc].a, depth: old[pc].depth, run: make([]runElem, n)}
			for i := 0; i < n; i++ {
				el := &old[pc+i]
				fused.run[i] = runElem{off: el.b.imm.I, dst: el.dst, val: el.c}
				remap[pc+i] = int32(len(out) + 1 + i)
			}
			remap[pc] = int32(len(out))
			out = append(out, fused)
			out = append(out, old[pc:pc+n]...)
			pc += n

		default:
			remap[pc] = int32(len(out))
			out = append(out, old[pc])
			pc++
		}
	}
	remap[len(old)] = int32(len(out))

	// Rewrite branch targets (migrate's target is a label, not a pc) and
	// function entries into new coordinates.
	for i := range out {
		switch out[i].op {
		case jIf, jCmpBr:
			out[i].target = remap[out[i].target]
		}
	}
	for i := range c.fns {
		c.fns[i].entry = int(remap[c.fns[i].entry])
	}
	c.code = out
}
