// Package jit implements the threaded-code execution engine: the fast
// engine behind internal/engine's registry, next to the slot-resolved
// interpreter ("vm") it is tested against. It is what carries the paper's
// "machine-code runtime" story here: FIR, never native code, crosses a
// migration, and the target recompiles it for its own engine.
//
// The compiler lowers FIR to the same slot-resolved linear shape as the
// interpreter — one instruction per FIR node, variables resolved to dense
// frame slots — but with these executable differences:
//
//   - every operand is a frame slot: literal operands are interned into a
//     per-program constant area of the frame, above every slot the code
//     writes, which Load fills and which is never a GC root;
//   - every instruction carries a specialized opcode resolved at compile
//     time (one per FIR operator), so the machine's next-instruction loop
//     dispatches straight to an inlined body instead of re-deciding the
//     operator per step through ops.Eval;
//   - where the compiler has proven every operand's kind — the engine
//     itself has enforced it: a checked parameter, an operator's result,
//     a constant — the opcode is a kind-specialised form that reads the
//     payload with no tag test (quickening, done ahead of time from
//     proofs); every other operand keeps the checked, generic form;
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
// transfers never observe the fusion. A kind-specialised form keeps only
// its value checks (a zero divisor, a shift out of range, the heap's
// checks on a load or store); when one fails it reports through the same
// path as the generic form, with the interpreter's error text.
package jit

import (
	"fmt"
	"maps"
	"math"
	"slices"

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
	// matching arity: every direct call. FIR lowers loops to tail calls,
	// so this is the hot call form. target holds the function index
	// resolved at compile time; run holds the checks of the arguments
	// whose kind is not already proven, and moves the argument transfer
	// planned at compile time.
	jCallKnown

	// Kind-specialised forms ("K": every operand's kind is known). The
	// compiler picks one in place of its generic opcode wherever it has
	// proven each operand's kind (fnCompiler.proven), so the form reads
	// .I or .F with no tag test. jAddK…jFtoIK mirror jAdd…jFtoI value for
	// value. Only the value checks stay: a zero divisor and a shift out of
	// range fall back to ops.Eval for the interpreter's error text.
	jAddK
	jSubK
	jMulK
	jDivK
	jModK
	jNegK
	jAndK
	jOrK
	jXorK
	jNotK
	jShlK
	jShrK
	jEqK
	jNeK
	jLtK
	jLeK
	jGtK
	jGeK
	jFAddK
	jFSubK
	jFMulK
	jFDivK
	jFNegK
	jFEqK
	jFNeK
	jFLtK
	jFLeK
	jFGtK
	jFGeK
	jItoFK
	jFtoIK
	jIfK    // the condition is an int
	jLoadK  // the base is a pointer and the index an int; heap checks stay
	jStoreK // likewise; the stored value's kind is the heap's to check

	// jCmpBrEqK…jCmpBrGeK are jCmpBr over proven ints, one per compare
	// operator, in jEq…jGe order. Only the quantum can send them to their
	// components.
	jCmpBrEqK
	jCmpBrNeK
	jCmpBrLtK
	jCmpBrLeK
	jCmpBrGtK
	jCmpBrGeK
)

// kindSlow marks a load destination type the fast path cannot reduce to a
// single runtime tag; the generic ops.Eval path handles it.
const kindSlow heap.Kind = 0xFF

// operand is a resolved operand: always a frame slot. An immediate is
// interned into the program's constant area, frame slots that Load fills
// and no instruction writes. During compilation constant k is -1-k
// (^k); placeConsts gives it its slot once the frame's size is known.
type operand int32

// runElem is one element of a fused load or store run, or one argument
// check of a known call (dst: the argument's index; val, want, ty: its
// operand and the parameter's tag and type).
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
	moves   []move // jCallKnown: the argument transfer, in order
}

// move is one step of a known call's argument transfer: frame[dst] = src.
type move struct {
	dst int32
	src operand
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
// fans the artifact out to every node. slots is the frame size: every
// depth window, the move planner's scratch slot, then the constant area,
// consts at slots constBase on.
type Compiled struct {
	prog      *fir.Program
	code      []ins
	fns       []jitFn
	extNames  []string
	slots     int
	consts    []heap.Value
	constBase int
}

// imm is the value of a constant operand before placeConsts, or false
// for a variable's slot.
func (c *Compiled) imm(a operand) (heap.Value, bool) {
	if a >= 0 {
		return heap.Value{}, false
	}
	return c.consts[^a], true
}

// Precompile lowers prog to threaded code without building a machine; hand
// the result to NewMachine or ResumeMachine to skip per-machine
// compilation. It runs the lowering passes: the slot-resolving walk (one
// instruction per FIR node, identical structure to the interpreter's, each
// in its kind-specialised form where the operand kinds are proven), the
// fusion rewrite, the known calls' move planning, and the placement of
// the constant area.
func Precompile(prog *fir.Program) (*Compiled, error) {
	c := &Compiled{prog: prog, fns: make([]jitFn, len(prog.Funcs))}
	fc := &fnCompiler{prog: prog, c: c, extIdx: make(map[string]int32), constIdx: make(map[constKey]operand)}
	for i, f := range prog.Funcs {
		kinds := make([]heap.Kind, len(f.Params))
		for j, prm := range f.Params {
			kinds[j] = wantKind(prm.Type)
		}
		c.fns[i] = jitFn{entry: len(c.code), fn: f, kinds: kinds}
		fc.fn = f
		env := make(map[string]int32, len(f.Params))
		for j, prm := range f.Params {
			env[prm.Name] = int32(j)
			fc.prove(int32(j), kinds[j])
		}
		if err := fc.expr(f.Body, env, int32(len(f.Params))); err != nil {
			return nil, err
		}
	}
	fuse(c)
	planMoves(c)
	placeConsts(c)
	return c, nil
}

type fnCompiler struct {
	prog   *fir.Program
	c      *Compiled
	fn     *fir.Function
	extIdx map[string]int32 // shared across functions: extern table is per program

	constIdx map[constKey]operand // interned immediates, per program

	// proven holds, per frame slot, the kind the engine itself has already
	// enforced on the value the slot holds at the current point of the
	// walk, or kindSlow when none is. It never rests on fir.Check, which
	// StartAt and trusted unpacks skip: a parameter's kind is checked on
	// every entry (Invoke, or a known call's checks), an operator fixes
	// its result's kind (a load checks its declared type; a move keeps its
	// source's), and an immediate is what it is. Extern results stay
	// unproven: their signature is known only at run time.
	proven []heap.Kind
	saved  []heap.Kind // stack of proven prefixes, one per enclosing If
}

// prove records the kind of the value a binding leaves in slot.
func (fc *fnCompiler) prove(slot int32, k heap.Kind) {
	for int(slot) >= len(fc.proven) {
		fc.proven = append(fc.proven, kindSlow)
	}
	fc.proven[slot] = k
}

// kindOf is the proven kind of an operand, or kindSlow.
func (fc *fnCompiler) kindOf(a operand) heap.Kind {
	if v, ok := fc.c.imm(a); ok {
		return v.Kind
	}
	return fc.proven[a]
}

// aluKinds is the operand kinds a generic ALU opcode (jAdd…jFtoI) checks
// before it computes, and how many operands it takes.
func aluKinds(op jop) (want heap.Kind, n int) {
	switch op {
	case jNeg, jNot, jItoF:
		return heap.KInt, 1
	case jFNeg, jFtoI:
		return heap.KFloat, 1
	}
	if op >= jFAdd {
		return heap.KFloat, 2
	}
	return heap.KInt, 2
}

// quicken picks a Let's kind-specialised form when the walk has proven
// every operand's kind, and leaves its generic, checked form otherwise.
// It reads the operands' kinds, so it runs before bind re-proves the
// destination slot, which may be one of them.
func (fc *fnCompiler) quicken(in *ins) {
	if in.args != nil {
		return
	}
	switch {
	case in.op >= jAdd && in.op <= jFtoI:
		want, n := aluKinds(in.op)
		if int(in.nargs) == n && fc.kindOf(in.a) == want && (n == 1 || fc.kindOf(in.b) == want) {
			in.op += jAddK - jAdd
		}
	case in.op == jLoad && in.nargs == 2 && in.want != kindSlow, in.op == jStore && in.nargs == 3:
		if fc.kindOf(in.a) == heap.KPtr && fc.kindOf(in.b) == heap.KInt {
			in.op += jLoadK - jLoad // jStoreK - jStore alike
		}
	}
}

// letKind is the kind a Let's result has whenever its node completes, on
// the fast path and through ops.Eval alike; kindSlow when the operator
// does not fix it.
func (fc *fnCompiler) letKind(in *ins) heap.Kind {
	switch op := in.alu; {
	case op <= fir.OpGe, op >= fir.OpFEq && op <= fir.OpFGe, op == fir.OpFloatToInt,
		op == fir.OpLen, op == fir.OpPtrOff, op == fir.OpPtrEq, op == fir.OpPtrIsNil:
		return heap.KInt
	case op >= fir.OpFAdd && op <= fir.OpFNeg, op == fir.OpIntToFloat:
		return heap.KFloat
	case op == fir.OpAlloc, op == fir.OpPtrAdd, op == fir.OpPtrBase, op == fir.OpPtrNull:
		return heap.KPtr
	case op == fir.OpStore:
		return heap.KUnit
	case op == fir.OpLoad:
		return in.want
	case op == fir.OpMove && in.args == nil && in.nargs >= 1:
		return fc.kindOf(in.a)
	default:
		return kindSlow
	}
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

// constKey identifies an immediate by its bits, so 0.0 and -0.0 stay two
// constants.
type constKey struct {
	kind heap.Kind
	i    int64
	f    uint64
}

// constant interns an immediate into the constant area.
func (fc *fnCompiler) constant(v heap.Value) operand {
	key := constKey{v.Kind, v.I, math.Float64bits(v.F)}
	if a, ok := fc.constIdx[key]; ok {
		return a
	}
	a := ^operand(len(fc.c.consts))
	fc.c.consts = append(fc.c.consts, v)
	fc.constIdx[key] = a
	return a
}

func (fc *fnCompiler) atom(a fir.Atom, env map[string]int32) (operand, error) {
	switch a := a.(type) {
	case fir.Var:
		s, ok := env[a.Name]
		if !ok {
			return 0, fmt.Errorf("jit: unbound variable %q in %s", a.Name, fc.fn.Name)
		}
		return operand(s), nil
	case fir.IntLit:
		return fc.constant(heap.IntVal(a.V)), nil
	case fir.FloatLit:
		return fc.constant(heap.FloatVal(a.V)), nil
	case fir.FunLit:
		_, idx := fc.prog.Lookup(a.Name)
		if idx < 0 {
			return 0, fmt.Errorf("jit: undefined function %q in %s", a.Name, fc.fn.Name)
		}
		return fc.constant(heap.FunVal(int64(idx))), nil
	case fir.UnitLit:
		return fc.constant(heap.UnitVal()), nil
	default:
		return 0, fmt.Errorf("jit: unknown atom %T in %s", a, fc.fn.Name)
	}
}

// knownCall reports whether a call is a jCallKnown: the callee is a
// function literal with matching arity. Only computed callees and arity
// mismatches take the generic jCall path, through Invoke. A known call
// never reads its callee, so the literal takes no constant slot.
func (fc *fnCompiler) knownCall(fn fir.Atom, nargs int) (int32, bool) {
	lit, ok := fn.(fir.FunLit)
	if !ok {
		return 0, false
	}
	_, idx := fc.prog.Lookup(lit.Name)
	if idx < 0 || len(fc.prog.Funcs[idx].Params) != nargs {
		return 0, false
	}
	return int32(idx), true
}

// argChecks lists a known call's arguments whose kind is not proven to be
// the callee parameter's, in argument order: the only ones the call checks
// at run time.
func (fc *fnCompiler) argChecks(callee int32, args []operand) []runElem {
	var out []runElem
	for i, prm := range fc.prog.Funcs[callee].Params {
		want := wantKind(prm.Type)
		if want != kindSlow && fc.kindOf(args[i]) == want {
			continue
		}
		out = append(out, runElem{dst: int32(i), val: args[i], want: want, ty: prm.Type})
	}
	return out
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
			k := fc.letKind(&in)
			fc.quicken(&in)
			env, in.dst, depth = fc.bind(env, e2.Dst, depth)
			fc.prove(in.dst, k)
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
			fc.prove(in.dst, kindSlow)
			fc.grow(depth)
			fc.emit(in)
			e = e2.Body

		case fir.If:
			ca, err := fc.atom(e2.Cond, env)
			if err != nil {
				return err
			}
			pos := len(fc.c.code)
			op := jIf
			if fc.kindOf(ca) == heap.KInt {
				op = jIfK
			}
			fc.emit(ins{op: op, nodes: 1, a: ca, depth: depth})
			// The then branch gets a clone so its bindings stay invisible
			// to the else branch; bind can then mutate in place. A rebinding
			// there changes a live slot's proven kind, so the else branch
			// starts from the kinds saved here.
			mark := len(fc.saved)
			fc.saved = append(fc.saved, fc.proven[:depth]...)
			if err := fc.expr(e2.Then, maps.Clone(env), depth); err != nil {
				return err
			}
			copy(fc.proven, fc.saved[mark:])
			fc.saved = fc.saved[:mark]
			fc.c.code[pos].target = int32(len(fc.c.code))
			e = e2.Else

		case fir.Call:
			idx, known := fc.knownCall(e2.Fn, len(e2.Args))
			var fa operand
			if !known {
				var err error
				if fa, err = fc.atom(e2.Fn, env); err != nil {
					return err
				}
			}
			args, err := fc.atoms(e2.Args, env)
			if err != nil {
				return err
			}
			if known {
				fc.emit(ins{op: jCallKnown, nodes: 1, target: idx, args: args, run: fc.argChecks(idx, args), depth: depth})
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

func isIntCmp(op jop) bool { return op >= jEq && op <= jGe || op >= jEqK && op <= jGeK }

func isBranch(op jop) bool {
	return op == jIf || op == jIfK || op == jCmpBr || op >= jCmpBrEqK && op <= jCmpBrGeK
}

// cmpBrAt reports whether the two instructions starting at pc form a
// fusible integer compare-and-branch pair: the branch tests exactly the
// slot the compare wrote.
func cmpBrAt(code []ins, pc int) bool {
	if pc+1 >= len(code) {
		return false
	}
	cmp, br := &code[pc], &code[pc+1]
	return isIntCmp(cmp.op) && (br.op == jIf || br.op == jIfK) && br.a == operand(cmp.dst)
}

// constOff reports whether a load or store addresses a constant int
// offset off a variable base, and the offset.
func (c *Compiled) constOff(in *ins) (int64, bool) {
	off, ok := c.imm(in.b)
	return off.I, in.a >= 0 && ok && off.Kind == heap.KInt
}

// loadRunAt returns the length (≥2) of the maximal fusible load run
// starting at pc, or 0. Elements load constant offsets off one base slot;
// an element whose destination overwrites the base ends the run with it.
func (c *Compiled) loadRunAt(code []ins, pc int) int {
	base := code[pc].a
	n := 0
	for pc+n < len(code) && n < maxRun {
		in := &code[pc+n]
		if in.op != jLoad && in.op != jLoadK || in.a != base || in.want == kindSlow || in.want == heap.KUnit {
			break
		}
		if _, ok := c.constOff(in); !ok {
			break
		}
		n++
		if operand(in.dst) == base {
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
func (c *Compiled) storeRunAt(code []ins, pc int) int {
	base := code[pc].a
	n := 0
	for pc+n < len(code) && n < maxRun {
		in := &code[pc+n]
		if in.op != jStore && in.op != jStoreK || in.a != base {
			break
		}
		if _, ok := c.constOff(in); !ok {
			break
		}
		n++
		if operand(in.dst) == base {
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
			if cmp.op >= jEqK {
				fused.op = jCmpBrEqK + (cmp.op - jEqK)
			}
			fused.nodes = 2
			fused.target = br.target // remapped below, in old coordinates
			out = append(out, fused)
			remap[pc] = int32(fusedTo)
			remap[pc+1] = int32(len(out) + 1) // the branch component
			out = append(out, cmp, br)
			pc += 2

		case c.loadRunAt(old, pc) > 0:
			n := c.loadRunAt(old, pc)
			fused := ins{op: jLoadRun, nodes: uint8(n), a: old[pc].a, depth: old[pc].depth, run: make([]runElem, n)}
			for i := 0; i < n; i++ {
				el := &old[pc+i]
				off, _ := c.constOff(el)
				fused.run[i] = runElem{off: off, dst: el.dst, want: el.want, ty: el.dstTy}
				remap[pc+i] = int32(len(out) + 1 + i)
			}
			remap[pc] = int32(len(out))
			out = append(out, fused)
			out = append(out, old[pc:pc+n]...)
			pc += n

		case c.storeRunAt(old, pc) > 0:
			n := c.storeRunAt(old, pc)
			fused := ins{op: jStoreRun, nodes: uint8(n), a: old[pc].a, depth: old[pc].depth, run: make([]runElem, n)}
			for i := 0; i < n; i++ {
				el := &old[pc+i]
				off, _ := c.constOff(el)
				fused.run[i] = runElem{off: off, dst: el.dst, val: el.c}
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
		if isBranch(out[i].op) {
			out[i].target = remap[out[i].target]
		}
	}
	for i := range c.fns {
		c.fns[i].entry = int(remap[c.fns[i].entry])
	}
	c.code = out
}

// ---------------------------------------------------------------------------
// Move planning.

// planMoves gives every known call its argument transfer, the parallel
// move args[i] → slot i, as a sequence of single moves that never
// overwrites a slot a later move still reads (Rideau, Serpette & Leroy,
// "Tilting at windmills with Coq", JAR 2008). Cycles go through one
// scratch slot above every depth window, so it is never a GC root.
func planMoves(c *Compiled) {
	p := movePlanner{scratch: int32(c.slots)}
	for i := range c.code {
		in := &c.code[i]
		if in.op != jCallKnown {
			continue
		}
		// The moves and the checks carry everything the call reads.
		in.moves, in.args = p.plan(in.args), nil
	}
	if p.usedScratch {
		c.slots++
	}
}

// movePlanner sequentializes one program's known calls, reusing its
// buffers from call to call: fresh ones per call made a grid compile
// ~25% slower.
type movePlanner struct {
	scratch     int32
	usedScratch bool
	pending     []bool  // per parameter slot: its move is not yet emitted
	readers     []int32 // per parameter slot: pending moves reading it
	moves       []move
}

// plan orders the moves args[i] → slot i. A self-move (args[i] already in
// slot i) is dropped. A move is emitted once no pending move still reads
// its destination; what is then left are disjoint cycles, each broken by
// saving one slot in scratch. Immediates read no slot and go last.
func (p *movePlanner) plan(args []operand) []move {
	n := int32(len(args))
	pending := append(p.pending[:0], make([]bool, n)...)
	readers := append(p.readers[:0], make([]int32, n)...)
	p.pending, p.readers = pending, readers
	moves := p.moves[:0]
	for i, a := range args {
		if a >= 0 && a != operand(i) {
			pending[i] = true
			if int32(a) < n {
				readers[a]++
			}
		}
	}
	for progress := true; progress; {
		progress = false
		for i := int32(0); i < n; i++ {
			if pending[i] && readers[i] == 0 {
				moves = append(moves, move{dst: i, src: args[i]})
				pending[i] = false
				if s := int32(args[i]); s < n {
					readers[s]--
				}
				progress = true
			}
		}
	}
	for i := int32(0); i < n; i++ {
		if !pending[i] {
			continue
		}
		// Slot i's value moves to scratch; walk the cycle backwards, each
		// destination taking its source once that source's old value has
		// been read, until the move that read slot i takes scratch.
		p.usedScratch = true
		moves = append(moves, move{dst: p.scratch, src: operand(i)})
		for d := i; pending[d]; {
			pending[d] = false
			s := int32(args[d])
			if s == i {
				moves = append(moves, move{dst: d, src: operand(p.scratch)})
				break
			}
			moves = append(moves, move{dst: d, src: operand(s)})
			d = s
		}
	}
	for i, a := range args {
		if a < 0 {
			moves = append(moves, move{dst: int32(i), src: a})
		}
	}
	p.moves = moves
	return slices.Clone(moves)
}

// ---------------------------------------------------------------------------
// Constant placement.

// placeConsts puts the constant area above every slot the code writes —
// each depth window and the move planner's scratch slot — so no constant
// is ever in a GC root window (frame[:depth]) or overwritten, and rewrites
// every constant operand to its slot there.
func placeConsts(c *Compiled) {
	c.constBase = c.slots
	c.slots += len(c.consts)
	place := func(a *operand) {
		if *a < 0 {
			*a = operand(c.constBase) + ^*a
		}
	}
	for i := range c.code {
		in := &c.code[i]
		place(&in.a)
		place(&in.b)
		place(&in.c)
		for j := range in.args {
			place(&in.args[j])
		}
		for j := range in.run {
			place(&in.run[j].val)
		}
		for j := range in.moves {
			place(&in.moves[j].src)
		}
	}
}
