package vm

// This file implements the slot-resolved execution core of the
// interpreter. At Start/StartAt time every fir.Var is resolved to a dense
// frame-slot index and each function body is flattened into straight-line
// instructions (FIR is CPS: a body is a Let/Extern chain ending in one
// control transfer, and an If simply forks two such chains — no joins, no
// back edges). The per-step name→value map of the historical tree-walking
// interpreter is gone from the hot path.
//
// Bit-exactness contract with the tree-walking interpreter it replaces:
//
//   - exactly one instruction per FIR node, so step counts, fuel
//     accounting, quantum boundaries and Steps() are identical;
//   - the GC root set while executing any instruction is frame[:depth],
//     which equals the value set of the historical environment map: a
//     binding enters the root set when its Let/Extern completes, and a
//     rebound name reuses its slot, so the shadowed value leaves the root
//     set exactly when the map overwrite would have dropped it;
//   - heap operations, extern invocation order, operator evaluation and
//     error text are unchanged, so snapshots and migration images are
//     bit-identical to the tree interpreter's.
//
// Frames exist only between pack/unpack boundaries: a migration image
// still carries no frame — the continuation function and arguments are
// written into the heap by pack, and unpack rebinds them through StartAt,
// exactly as before.

import (
	"fmt"
	"maps"

	"repro/internal/fir"
	"repro/internal/heap"
)

// fop is a flattened-instruction opcode; one per FIR node kind.
type fop uint8

const (
	fLet fop = iota
	fExtern
	fIf
	fCall
	fHalt
	fSpeculate
	fCommit
	fRollback
	fMigrate
)

// fatom is a resolved operand: a frame slot or an immediate value.
type fatom struct {
	slot int32 // >= 0: frame slot; < 0: immediate
	imm  heap.Value
}

// fin is one flattened instruction. Layout notes: a/b/c carry up to three
// fixed operands (the common Let/If/branch path never touches args);
// target is the else-branch pc for fIf and the migration label for
// fMigrate; depth is the number of live frame slots while this
// instruction executes — the GC root window.
type fin struct {
	op      fop
	nargs   uint8
	alu     fir.Op
	dstTy   fir.Type
	dst     int32
	depth   int32
	target  int32
	extIdx  int32
	a, b, c fatom
	args    []fatom
}

// frameFn is one function's compiled view.
type frameFn struct {
	entry int
	fn    *fir.Function
}

// frameProg is a program compiled to slot-resolved linear code.
type frameProg struct {
	code     []fin
	fns      []frameFn
	extNames []string
	slots    int // frame size: max live slots over all paths
}

// Compiled is an opaque slot-compiled program. It is immutable after
// construction and may be shared by any number of processes created from
// the same (unmutated) fir.Program — the cluster engine compiles once per
// program and fans the artifact out to every node.
type Compiled struct {
	prog *fir.Program
	fp   *frameProg
}

// Precompile lowers prog to slot-resolved code without building a
// process; hand the result to NewProcess or ResumeProcess to skip
// per-process compilation.
func Precompile(prog *fir.Program) (*Compiled, error) {
	fp, err := compileFrames(prog)
	if err != nil {
		return nil, err
	}
	return &Compiled{prog: prog, fp: fp}, nil
}

// compileFrames lowers prog to slot-resolved code. It fails on references
// a type-checked program cannot contain (unbound variables, undefined
// functions); Start always checks first, and the trusted StartAt path
// surfaces the same malformations at resume time instead of mid-run.
func compileFrames(prog *fir.Program) (*frameProg, error) {
	fp := &frameProg{fns: make([]frameFn, len(prog.Funcs))}
	extIdx := make(map[string]int32)
	for i, f := range prog.Funcs {
		fp.fns[i] = frameFn{entry: len(fp.code), fn: f}
		fc := &frameCompiler{prog: prog, fp: fp, fn: f, extIdx: extIdx}
		env := make(map[string]int32, len(f.Params))
		for j, prm := range f.Params {
			env[prm.Name] = int32(j)
		}
		if err := fc.expr(f.Body, env, int32(len(f.Params))); err != nil {
			return nil, err
		}
	}
	return fp, nil
}

type frameCompiler struct {
	prog   *fir.Program
	fp     *frameProg
	fn     *fir.Function
	extIdx map[string]int32 // shared across functions: extern table is per program
}

func (fc *frameCompiler) extern(name string) int32 {
	if i, ok := fc.extIdx[name]; ok {
		return i
	}
	i := int32(len(fc.fp.extNames))
	fc.fp.extNames = append(fc.fp.extNames, name)
	fc.extIdx[name] = i
	return i
}

func (fc *frameCompiler) grow(depth int32) {
	if int(depth) > fc.fp.slots {
		fc.fp.slots = int(depth)
	}
}

func (fc *frameCompiler) atom(a fir.Atom, env map[string]int32) (fatom, error) {
	switch a := a.(type) {
	case fir.Var:
		s, ok := env[a.Name]
		if !ok {
			return fatom{}, fmt.Errorf("vm: unbound variable %q in %s", a.Name, fc.fn.Name)
		}
		return fatom{slot: s}, nil
	case fir.IntLit:
		return fatom{slot: -1, imm: heap.IntVal(a.V)}, nil
	case fir.FloatLit:
		return fatom{slot: -1, imm: heap.FloatVal(a.V)}, nil
	case fir.FunLit:
		_, idx := fc.prog.Lookup(a.Name)
		if idx < 0 {
			return fatom{}, fmt.Errorf("vm: undefined function %q in %s", a.Name, fc.fn.Name)
		}
		return fatom{slot: -1, imm: heap.FunVal(int64(idx))}, nil
	case fir.UnitLit:
		return fatom{slot: -1, imm: heap.UnitVal()}, nil
	default:
		return fatom{}, fmt.Errorf("vm: unknown atom %T in %s", a, fc.fn.Name)
	}
}

func (fc *frameCompiler) atoms(as []fir.Atom, env map[string]int32) ([]fatom, error) {
	if len(as) == 0 {
		return nil, nil
	}
	out := make([]fatom, len(as))
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
// its existing slot — the overwrite drops the shadowed value from the
// root window exactly as the map overwrite did; a fresh name takes the
// next slot. Extension is in place: a CPS chain never forks, and sibling
// If branches are kept independent by the clone at the branch point.
func (fc *frameCompiler) bind(env map[string]int32, name string, depth int32) (map[string]int32, int32, int32) {
	if s, ok := env[name]; ok {
		return env, s, depth
	}
	env[name] = depth
	return env, depth, depth + 1
}

// setABC spreads up to three operands over the fixed slots.
func (in *fin) setABC(i int, fa fatom) {
	switch i {
	case 0:
		in.a = fa
	case 1:
		in.b = fa
	case 2:
		in.c = fa
	}
}

func (fc *frameCompiler) expr(e fir.Expr, env map[string]int32, depth int32) error {
	fc.grow(depth)
	for {
		switch e2 := e.(type) {
		case fir.Let:
			in := fin{op: fLet, alu: e2.Op, dstTy: e2.DstType, depth: depth}
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
			in := fin{op: fExtern, dstTy: e2.DstType, depth: depth, extIdx: fc.extern(e2.Name), args: args}
			env, in.dst, depth = fc.bind(env, e2.Dst, depth)
			fc.grow(depth)
			fc.emit(in)
			e = e2.Body

		case fir.If:
			ca, err := fc.atom(e2.Cond, env)
			if err != nil {
				return err
			}
			pos := len(fc.fp.code)
			fc.emit(fin{op: fIf, a: ca, depth: depth})
			// The then branch gets a clone so its bindings stay invisible
			// to the else branch; bind can then mutate in place.
			if err := fc.expr(e2.Then, maps.Clone(env), depth); err != nil {
				return err
			}
			fc.fp.code[pos].target = int32(len(fc.fp.code))
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
			fc.emit(fin{op: fCall, a: fa, args: args, depth: depth})
			return nil

		case fir.Halt:
			ca, err := fc.atom(e2.Code, env)
			if err != nil {
				return err
			}
			fc.emit(fin{op: fHalt, a: ca, depth: depth})
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
			fc.emit(fin{op: fSpeculate, a: fa, args: args, depth: depth})
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
			fc.emit(fin{op: fCommit, a: la, b: fa, args: args, depth: depth})
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
			fc.emit(fin{op: fRollback, a: la, b: ca, depth: depth})
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
			fc.emit(fin{op: fMigrate, a: ta, b: oa, c: fa, target: int32(e2.Label), args: args, depth: depth})
			return nil

		default:
			return fmt.Errorf("vm: unknown expression %T in %s", e2, fc.fn.Name)
		}
	}
}

func (fc *frameCompiler) emit(in fin) {
	fc.fp.code = append(fc.fp.code, in)
}
