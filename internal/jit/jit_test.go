// Differential tests of the threaded-code engine against the interpreter,
// at the rt.Proc boundary: whatever a driver can observe — status, halt
// code, step count, error text and the function it names, output, where a
// quantum ends — must be the same on both, for whole programs and for
// hand-built FIR that makes every fused form's precondition fail at run
// time.
package jit_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/jit"
	"repro/internal/lang"
	"repro/internal/migrate"
	"repro/internal/msg"
	"repro/internal/rt"
	"repro/internal/vm"
	"repro/internal/workload"
	_ "repro/internal/workload/apps" // registers the grid
)

// subject is one program with everything needed to run it; setup is called
// once per engine so the two processes share no mutable state.
type subject struct {
	name  string
	prog  *fir.Program
	cfg   rt.Config
	setup func(p rt.Proc) // externs and migrate handler; may be nil
	// startAt, when >= 0, skips Start's type check and resumes at that
	// function — the only way to run ill-typed FIR, as a trusted peer can.
	startAt int64
	args    []heap.Value
}

// pair builds the subject on both engines, started.
func (s subject) pair(t *testing.T, fuel uint64) (ref, sut rt.Proc, refOut, sutOut *bytes.Buffer) {
	t.Helper()
	mk := func(build func(*fir.Program, rt.Config) rt.Proc) (rt.Proc, *bytes.Buffer) {
		var out bytes.Buffer
		cfg := s.cfg
		cfg.Stdout = &out
		if fuel != 0 {
			cfg.Fuel = fuel
		}
		p := build(s.prog, cfg)
		if s.setup != nil {
			s.setup(p)
		}
		var err error
		if s.startAt >= 0 {
			err = p.StartAt(s.startAt, s.args)
		} else {
			err = p.Start()
		}
		if err != nil {
			t.Fatalf("%s: start: %v", s.name, err)
		}
		return p, &out
	}
	ref, refOut = mk(func(p *fir.Program, c rt.Config) rt.Proc { return vm.NewProcess(p, nil, c) })
	sut, sutOut = mk(func(p *fir.Program, c rt.Config) rt.Proc { return jit.NewMachine(p, nil, c) })
	return
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func errFn(err error) string {
	var rte *rt.RuntimeError
	if errors.As(err, &rte) {
		return rte.Fn
	}
	return ""
}

// agree fails unless the two processes look the same from outside.
func agree(t *testing.T, when string, ref, sut rt.Proc) {
	t.Helper()
	if ref.Status() != sut.Status() || ref.HaltCode() != sut.HaltCode() || ref.Steps() != sut.Steps() {
		t.Fatalf("%s: vm status=%s halt=%d steps=%d, jit status=%s halt=%d steps=%d", when,
			ref.Status(), ref.HaltCode(), ref.Steps(), sut.Status(), sut.HaltCode(), sut.Steps())
	}
	if errText(ref.Err()) != errText(sut.Err()) || errFn(ref.Err()) != errFn(sut.Err()) {
		t.Fatalf("%s: vm err %q (in %q), jit err %q (in %q)", when,
			errText(ref.Err()), errFn(ref.Err()), errText(sut.Err()), errFn(sut.Err()))
	}
}

// lockstep drives both processes n steps at a time (0 = to the end) and
// requires them to agree after every quantum.
func lockstep(t *testing.T, s subject, n, fuel uint64) (ref, sut rt.Proc) {
	t.Helper()
	ref, sut, refOut, sutOut := s.pair(t, fuel)
	for q := 0; ref.Status() == rt.StatusRunning; q++ {
		st1, err1 := ref.RunSteps(n)
		st2, err2 := sut.RunSteps(n)
		when := fmt.Sprintf("%s RunSteps(%d) #%d", s.name, n, q)
		if st1 != st2 || errText(err1) != errText(err2) {
			t.Fatalf("%s: vm returned %s, %q; jit %s, %q", when, st1, errText(err1), st2, errText(err2))
		}
		agree(t, when, ref, sut)
	}
	if refOut.String() != sutOut.String() {
		t.Fatalf("%s: output diverged\nvm:  %q\njit: %q", s.name, refOut, sutOut)
	}
	return ref, sut
}

// programs is grid.mc (one node, two checkpoints, so speculate, commit and
// migrate all run) plus the conformance corpus.
func programs(t *testing.T) []subject {
	t.Helper()
	var out []subject
	src, err := os.ReadFile("../lang/testdata/grid.mc")
	if err != nil {
		t.Fatal(err)
	}
	sigs := cluster.Externs()
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	prog, err := lang.Compile(string(src), sigs)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, subject{
		name: "grid", prog: prog, startAt: -1,
		cfg: rt.Config{Args: []int64{1, 4, 8, 6, 3}}, // nodes, rows, cols, steps, checkpoint interval
		setup: func(p rt.Proc) {
			for _, reg := range []rt.Registry{msg.NewRouter().Externs(0), workload.CkExtern("grid-ck-0")} {
				for n, e := range reg {
					p.RegisterExtern(n, e.Sig, e.Fn)
				}
			}
			p.SetMigrateHandler((&migrate.Migrator{Store: cluster.NewMemStore()}).Handle)
		},
	})
	files, err := filepath.Glob("../conformance/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("conformance corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Compile(string(src), rt.StdExterns().Sigs())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, subject{
			name: strings.TrimSuffix(filepath.Base(f), ".mc"), prog: prog, startAt: -1,
			cfg: rt.Config{Args: []int64{3, 4}, Seed: 12345},
		})
	}
	return out
}

func TestProgramsAgreeWithInterpreter(t *testing.T) {
	for _, s := range programs(t) {
		t.Run(s.name, func(t *testing.T) {
			ref, _ := lockstep(t, s, 0, 0)
			if ref.Status() != rt.StatusHalted {
				t.Fatalf("vm: %s, %v", ref.Status(), ref.Err())
			}
			total := ref.Steps()
			// Quanta that split every fused form at every position.
			for _, n := range []uint64{1, 7, 100} {
				lockstep(t, s, n, 0)
			}
			// Fuel N fails after exactly N steps, wherever N lands.
			for _, fuel := range []uint64{1, 2, 13, total / 2, total - 1} {
				ref, _ := lockstep(t, s, 0, fuel)
				if ref.Status() != rt.StatusFailed || !errors.Is(ref.Err(), rt.ErrFuelExhausted) || ref.Steps() != fuel {
					t.Fatalf("fuel %d: status=%s err=%v after %d steps", fuel, ref.Status(), ref.Err(), ref.Steps())
				}
			}
			if ref, _ := lockstep(t, s, 0, total); ref.Status() != rt.StatusHalted {
				t.Fatalf("fuel %d is exactly enough, yet: %s, %v", total, ref.Status(), ref.Err())
			}
		})
	}
}

// fusedFallbacks are programs on which a fused form starts and cannot
// finish, or on which a kind-specialised form's value check fails: the
// interpreter defines where they stop and what they report.
func fusedFallbacks() []subject {
	block := func() *fir.Builder { // p = alloc 4; p[0] = 7; p[1] = 2.5  (a fused store run)
		b := fir.NewBuilder()
		b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(4))
		b.Let("u0", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.I(7))
		b.Let("u1", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(1), fir.F(2.5))
		return b
	}
	typed := func(name string, body fir.Expr) subject {
		return subject{name: name, prog: fir.NewProgram("main", fir.Fn("main", nil, body)), startAt: -1}
	}
	untyped := func(name string, args []heap.Value, fns ...*fir.Function) subject {
		return subject{name: name, prog: fir.NewProgram(fns[0].Name, fns...), startAt: 0, args: args}
	}
	intFn := fir.Fn("k", fir.Ps("n", fir.TyInt), fir.NewBuilder().Halt(fir.V("n")))

	loadKind := block()
	loadKind.Let("a", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	loadKind.Let("b", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(1)) // holds a float

	loadRange := block()
	loadRange.Let("a", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	loadRange.Let("b", fir.TyFloat, fir.OpLoad, fir.V("p"), fir.I(1))
	loadRange.Let("c", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(9))

	storeRange := block()
	storeRange.Let("u2", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(2), fir.I(1))
	storeRange.Let("u3", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(-1), fir.I(2))

	loadBase := fir.NewBuilder() // x is an int: neither run may start
	loadBase.Let("a", fir.TyInt, fir.OpLoad, fir.V("x"), fir.I(0))
	loadBase.Let("b", fir.TyInt, fir.OpLoad, fir.V("x"), fir.I(1))
	storeBase := fir.NewBuilder()
	storeBase.Let("u0", fir.TyUnit, fir.OpStore, fir.V("x"), fir.I(0), fir.I(1))
	storeBase.Let("u1", fir.TyUnit, fir.OpStore, fir.V("x"), fir.I(1), fir.I(2))

	cmp := fir.NewBuilder() // a float reaches an integer compare-and-branch
	cmp.Let("c", fir.TyInt, fir.OpLt, fir.V("x"), fir.I(1))

	// op(7, b) over proven ints: every operand's kind is known, and the
	// value check alone must still trap.
	proven := func(op fir.Op, b int64) fir.Expr {
		pb := fir.NewBuilder()
		pb.Let("a", fir.TyInt, fir.OpMove, fir.I(7))
		pb.Let("b", fir.TyInt, fir.OpMove, fir.I(b))
		pb.Let("r", fir.TyInt, op, fir.V("a"), fir.V("b"))
		return pb.Halt(fir.V("r"))
	}

	return []subject{
		typed("load run: wrong kind in the heap", loadKind.Halt(fir.V("a"))),
		typed("load run: offset out of range", loadRange.Halt(fir.V("a"))),
		typed("store run: offset out of range", storeRange.Halt(fir.I(0))),
		untyped("load run: base is not a pointer", []heap.Value{heap.IntVal(3)},
			fir.Fn("f", fir.Ps("x", fir.TyInt), loadBase.Halt(fir.V("a")))),
		untyped("store run: base is not a pointer", []heap.Value{heap.IntVal(3)},
			fir.Fn("f", fir.Ps("x", fir.TyInt), storeBase.Halt(fir.I(0)))),
		untyped("compare-and-branch: float operand", []heap.Value{heap.FloatVal(0.5)},
			fir.Fn("f", fir.Ps("x", fir.TyFloat), cmp.If(fir.V("c"), fir.NewBuilder().Halt(fir.I(1)), fir.NewBuilder().Halt(fir.I(2))))),
		untyped("branch: float condition", []heap.Value{heap.FloatVal(0.5)},
			fir.Fn("f", fir.Ps("x", fir.TyFloat), fir.NewBuilder().If(fir.V("x"), fir.NewBuilder().Halt(fir.I(1)), fir.NewBuilder().Halt(fir.I(2))))),
		untyped("known call: wrong argument kind", nil,
			fir.Fn("f", nil, fir.NewBuilder().CallNamed("k", fir.F(1.5))), intFn),
		untyped("known call: argument kind decided at run time", []heap.Value{heap.FloatVal(1.5)},
			fir.Fn("f", fir.Ps("x", fir.TyFloat), fir.NewBuilder().CallNamed("k", fir.V("x"))), intFn),
		untyped("call: target is not a function", []heap.Value{heap.IntVal(1)},
			fir.Fn("f", fir.Ps("x", fir.TyInt), fir.NewBuilder().Call(fir.V("x")))),
		untyped("call: computed callee, wrong argument kind", []heap.Value{heap.FunVal(1)},
			fir.Fn("f", fir.Ps("g", fir.TyFun(fir.TyInt)), fir.NewBuilder().Call(fir.V("g"), fir.F(1.5))), intFn),
		untyped("halt: float code", []heap.Value{heap.FloatVal(1.5)},
			fir.Fn("f", fir.Ps("x", fir.TyFloat), fir.NewBuilder().Halt(fir.V("x")))),
		typed("proven ints: division by zero", proven(fir.OpDiv, 0)),
		typed("proven ints: modulo by zero", proven(fir.OpMod, 0)),
		typed("proven ints: shift left by 64", proven(fir.OpShl, 64)),
		typed("proven ints: shift right by 64", proven(fir.OpShr, 64)),
		typed("proven ints: shift by -1", proven(fir.OpShl, -1)),
	}
}

func TestFusedFormFallbacksAgreeWithInterpreter(t *testing.T) {
	for _, s := range fusedFallbacks() {
		t.Run(s.name, func(t *testing.T) {
			ref, _ := lockstep(t, s, 0, 0)
			var rte *rt.RuntimeError
			if ref.Status() != rt.StatusFailed || !errors.As(ref.Err(), &rte) {
				t.Fatalf("vm: status=%s err=%v, want a RuntimeError", ref.Status(), ref.Err())
			}
			for _, n := range []uint64{1, 2, 3} {
				lockstep(t, s, n, 0)
			}
		})
	}
}

// TestYieldEndsTheQuantumAtTheSameStep: an extern that yields ends a
// bounded quantum right after its own node, which Steps already counts
// while the extern runs; an unbounded Run ignores the request.
func TestYieldEndsTheQuantumAtTheSameStep(t *testing.T) {
	// loop(i): if i == 0 halt 9; pad; pad; tick(); loop(i-1)
	lb := fir.NewBuilder()
	lb.Let("done", fir.TyInt, fir.OpEq, fir.V("i"), fir.I(0))
	body := fir.NewBuilder()
	body.Let("a", fir.TyInt, fir.OpAdd, fir.V("i"), fir.I(1))
	body.Let("b", fir.TyInt, fir.OpMul, fir.V("a"), fir.I(3))
	body.Extern("s", fir.TyInt, "tick")
	body.Let("j", fir.TyInt, fir.OpSub, fir.V("i"), fir.I(1))
	loop := fir.Fn("loop", fir.Ps("i", fir.TyInt),
		lb.If(fir.V("done"), fir.NewBuilder().Halt(fir.I(9)), body.CallNamed("loop", fir.V("j"))))
	main := fir.Fn("main", nil, fir.NewBuilder().CallNamed("loop", fir.I(5)))

	var seen [2][]uint64 // Steps as read inside tick, per engine
	engine := 0
	s := subject{
		name: "yield", prog: fir.NewProgram("main", main, loop), startAt: -1,
		setup: func(p rt.Proc) {
			mine := &seen[engine]
			engine++
			p.RegisterExtern("tick", fir.ExternSig{Result: fir.TyInt}, func(rt.Runtime, []heap.Value) (heap.Value, error) {
				*mine = append(*mine, p.Steps())
				p.Yield()
				return heap.IntVal(0), nil
			})
		},
	}
	ref, sut, _, _ := s.pair(t, 0)
	for q := 0; ref.Status() == rt.StatusRunning; q++ {
		ref.RunSteps(1000)
		sut.RunSteps(1000)
		agree(t, fmt.Sprintf("quantum %d", q), ref, sut)
		if ref.Status() == rt.StatusRunning && ref.Steps() != seen[0][q] {
			t.Fatalf("quantum %d ended at step %d; the yielding extern ran as step %d", q, ref.Steps(), seen[0][q])
		}
	}
	if len(seen[0]) != 5 || fmt.Sprint(seen[0]) != fmt.Sprint(seen[1]) {
		t.Fatalf("Steps inside the extern: vm %v, jit %v, want the same 5", seen[0], seen[1])
	}
	if ref.HaltCode() != 9 {
		t.Fatalf("halt %d, want 9", ref.HaltCode())
	}

	seen, engine = [2][]uint64{}, 0
	ref, sut = lockstep(t, s, 0, 0)
	if len(seen[0]) != 5 || ref.Status() != rt.StatusHalted {
		t.Fatalf("unbounded Run: %d ticks, status %s; a yield must not stop it", len(seen[0]), ref.Status())
	}
	agree(t, "unbounded", ref, sut)
}

// encoder is a function of the given int parameters that halts with all of
// them folded in order, h = (…(p0·31 + p1)·31 + …) + p(n−1), so the halt
// code tells which value reached which parameter.
func encoder(name string, arity int) *fir.Function {
	var ps []any
	for i := 0; i < arity; i++ {
		ps = append(ps, fmt.Sprintf("p%d", i), fir.TyInt)
	}
	b := fir.NewBuilder()
	b.Let("h0", fir.TyInt, fir.OpMove, fir.V("p0"))
	for i := 1; i < arity; i++ {
		b.Let(fmt.Sprintf("t%d", i), fir.TyInt, fir.OpMul, fir.V(fmt.Sprintf("h%d", i-1)), fir.I(31))
		b.Let(fmt.Sprintf("h%d", i), fir.TyInt, fir.OpAdd, fir.V(fmt.Sprintf("t%d", i)), fir.V(fmt.Sprintf("p%d", i)))
	}
	return fir.Fn(name, fir.Ps(ps...), b.Halt(fir.V(fmt.Sprintf("h%d", arity-1))))
}

// encode is encoder's halt code for the given arguments.
func encode(vs ...int64) int64 {
	h := vs[0]
	for _, v := range vs[1:] {
		h = h*31 + v
	}
	return h
}

// permute is main → f(1, 2, …, n) → g(args…): f's parameters hold 1…n in
// slots 0…n−1, and g is an encoder of len(args) parameters.
func permute(n int, args ...fir.Atom) *fir.Program {
	var ps []any
	var ones []fir.Atom
	for i := 0; i < n; i++ {
		ps = append(ps, string(rune('a'+i)), fir.TyInt)
		ones = append(ones, fir.I(int64(i+1)))
	}
	return fir.NewProgram("main",
		fir.Fn("main", nil, fir.NewBuilder().CallNamed("f", ones...)),
		fir.Fn("f", fir.Ps(ps...), fir.NewBuilder().CallNamed("g", args...)),
		encoder("g", len(args)))
}

// TestKnownCallMovesAgreeWithInterpreter: a known call transfers its
// arguments as moves planned at compile time; swaps, cycles, shifts and
// fan-out must land every value in the same parameter as the
// interpreter's copy through a fresh frame.
func TestKnownCallMovesAgreeWithInterpreter(t *testing.T) {
	a, b, c, d, e := fir.V("a"), fir.V("b"), fir.V("c"), fir.V("d"), fir.V("e")

	// g(p0, k, p2, p3, p4) passes its ints' code on to the function k.
	mixed := fir.NewBuilder()
	mixed.Let("h", fir.TyInt, fir.OpAdd, fir.V("p0"), fir.I(0))
	for _, p := range []string{"p2", "p3", "p4"} {
		mixed.Let("h", fir.TyInt, fir.OpMul, fir.V("h"), fir.I(31))
		mixed.Let("h", fir.TyInt, fir.OpAdd, fir.V("h"), fir.V(p))
	}
	mixedProg := fir.NewProgram("main",
		fir.Fn("main", nil, fir.NewBuilder().CallNamed("f", fir.I(1), fir.I(2), fir.I(3))),
		fir.Fn("f", fir.Ps("a", fir.TyInt, "b", fir.TyInt, "c", fir.TyInt),
			fir.NewBuilder().CallNamed("g", c, fir.FunLit{Name: "out"}, fir.I(7), a, b)),
		fir.Fn("g", fir.Ps("p0", fir.TyInt, "k", fir.TyFun(fir.TyInt), "p2", fir.TyInt, "p3", fir.TyInt, "p4", fir.TyInt),
			mixed.Call(fir.V("k"), fir.V("h"))),
		fir.Fn("out", fir.Ps("x", fir.TyInt), fir.NewBuilder().Halt(fir.V("x"))))

	// loop(i, x, y) swaps its state on every iteration: a cycle in a
	// self tail call.
	lb := fir.NewBuilder()
	lb.Let("done", fir.TyInt, fir.OpEq, fir.V("i"), fir.I(0))
	step := fir.NewBuilder()
	step.Let("j", fir.TyInt, fir.OpSub, fir.V("i"), fir.I(1))
	loopProg := fir.NewProgram("main",
		fir.Fn("main", nil, fir.NewBuilder().CallNamed("loop", fir.I(5), fir.I(1), fir.I(2))),
		fir.Fn("loop", fir.Ps("i", fir.TyInt, "x", fir.TyInt, "y", fir.TyInt),
			lb.If(fir.V("done"), fir.NewBuilder().CallNamed("g", fir.V("x"), fir.V("y")), step.CallNamed("loop", fir.V("j"), fir.V("y"), fir.V("x")))),
		encoder("g", 2))

	for _, tc := range []struct {
		name string
		prog *fir.Program
		want int64
	}{
		{"swap", permute(2, b, a), encode(2, 1)},
		{"3-cycle", permute(3, b, c, a), encode(2, 3, 1)},
		{"two disjoint cycles", permute(5, b, a, d, e, c), encode(2, 1, 4, 5, 3)},
		{"shift", permute(4, fir.I(9), a, b, c), encode(9, 1, 2, 3)},
		{"rotation", permute(4, d, a, b, c), encode(4, 1, 2, 3)},
		{"fan-out", permute(3, c, a, a), encode(3, 1, 1)},
		{"fan-out beside self-moves", permute(3, a, a, c), encode(1, 1, 3)},
		{"immediates and a function literal", mixedProg, encode(3, 7, 1, 2)},
		{"loop swapping its state", loopProg, encode(2, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := subject{name: tc.name, prog: tc.prog, startAt: -1}
			for _, n := range []uint64{0, 1, 2, 3} {
				ref, _ := lockstep(t, s, n, 0)
				if ref.Status() != rt.StatusHalted || ref.HaltCode() != tc.want {
					t.Fatalf("quantum %d: vm %s, halt %d, %v; want halt %d", n, ref.Status(), ref.HaltCode(), ref.Err(), tc.want)
				}
			}
		})
	}
}

// TestRandomKnownCallsAgreeWithInterpreter: seeded random known calls of
// arity 1–12 whose arguments come from the caller's parameters, its
// locals and immediates, each run in lockstep with the interpreter.
func TestRandomKnownCallsAgreeWithInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for call := 0; call < 300; call++ {
		np, nl, arity := 1+rng.Intn(12), rng.Intn(4), 1+rng.Intn(12)
		var ps []any
		var init []fir.Atom
		for i := 0; i < np; i++ {
			ps = append(ps, fmt.Sprintf("a%d", i), fir.TyInt)
			init = append(init, fir.I(int64(100+i)))
		}
		body := fir.NewBuilder()
		for l := 0; l < nl; l++ {
			body.Let(fmt.Sprintf("l%d", l), fir.TyInt, fir.OpAdd, fir.V(fmt.Sprintf("a%d", rng.Intn(np))), fir.I(int64(1000*(l+1))))
		}
		args := make([]fir.Atom, arity)
		for i := range args {
			switch r := rng.Intn(8); {
			case r < 5:
				args[i] = fir.V(fmt.Sprintf("a%d", rng.Intn(np)))
			case r < 7 && nl > 0:
				args[i] = fir.V(fmt.Sprintf("l%d", rng.Intn(nl)))
			default:
				args[i] = fir.I(int64(rng.Intn(50)))
			}
		}
		prog := fir.NewProgram("main",
			fir.Fn("main", nil, fir.NewBuilder().CallNamed("f", init...)),
			fir.Fn("f", fir.Ps(ps...), body.CallNamed("g", args...)),
			encoder("g", arity))
		s := subject{name: fmt.Sprintf("call %d: f/%d with %d locals → g%v", call, np, nl, args), prog: prog, startAt: -1}
		for _, n := range []uint64{0, 1, 2, 3} {
			if ref, _ := lockstep(t, s, n, 0); ref.Status() != rt.StatusHalted {
				t.Fatalf("%s: vm %s, %v", s.name, ref.Status(), ref.Err())
			}
		}
	}
}

// TestUnprovenArgumentKindsAreChecked: a known call skips the check of an
// argument, and an operator, branch or load takes its kind-specialised
// form, only when the engine itself has already enforced the operand's
// kind, never on the strength of a declared FIR type. Each program here is
// ill-typed and runs through StartAt, which skips fir.Check; it must fail
// at the same step, with the same text, in the same function, as on the
// interpreter.
func TestUnprovenArgumentKindsAreChecked(t *testing.T) {
	intFn := fir.Fn("k", fir.Ps("n", fir.TyInt), fir.NewBuilder().Halt(fir.V("n")))
	untyped := func(name string, args []heap.Value, setup func(rt.Proc), fns ...*fir.Function) subject {
		return subject{name: name, prog: fir.NewProgram(fns[0].Name, fns...), startAt: 0, args: args, setup: setup}
	}

	// An extern registered to return a float, declared in the FIR as int
	// or as a pointer.
	ext := fir.NewBuilder()
	ext.Extern("r", fir.TyInt, "half")
	half := func(p rt.Proc) {
		p.RegisterExtern("half", fir.ExternSig{Result: fir.TyFloat}, func(rt.Runtime, []heap.Value) (heap.Value, error) {
			return heap.FloatVal(0.5), nil
		})
	}
	extAdd := fir.NewBuilder()
	extAdd.Extern("r", fir.TyInt, "half")
	extAdd.Let("s", fir.TyInt, fir.OpAdd, fir.V("r"), fir.I(1))
	extLoad := fir.NewBuilder()
	extLoad.Extern("r", fir.TyPtr, "half")
	extLoad.Let("w", fir.TyInt, fir.OpLoad, fir.V("r"), fir.I(0))

	// x is rebound to an int in the then arm; the else arm still holds
	// the float parameter.
	then := fir.NewBuilder()
	then.Let("x", fir.TyInt, fir.OpMove, fir.I(1))
	rebound := fir.NewBuilder().If(fir.V("c"), then.Halt(fir.V("x")), fir.NewBuilder().CallNamed("k", fir.V("x")))
	thenAdd := fir.NewBuilder()
	thenAdd.Let("x", fir.TyInt, fir.OpMove, fir.I(1))
	elseAdd := fir.NewBuilder()
	elseAdd.Let("s", fir.TyInt, fir.OpAdd, fir.V("x"), fir.I(1))
	reboundAdd := fir.NewBuilder().If(fir.V("c"), thenAdd.Halt(fir.V("x")), elseAdd.Halt(fir.V("s")))

	// An int add rebinds the name of its own float operand: the add must
	// check the float it reads, not the int it is about to write.
	self := fir.NewBuilder()
	self.Let("x", fir.TyInt, fir.OpAdd, fir.V("x"), fir.I(1))

	// A move keeps its source's kind, whatever its declared type. (A float
	// parameter as the condition itself is fusedFallbacks' "branch: float
	// condition".)
	mv := fir.NewBuilder()
	mv.Let("y", fir.TyInt, fir.OpMove, fir.V("x"))
	mvIf := fir.NewBuilder()
	mvIf.Let("y", fir.TyInt, fir.OpMove, fir.V("x"))

	for _, tc := range []struct {
		s    subject
		want string
	}{
		{untyped("extern result of the wrong kind", nil, half,
			fir.Fn("f", nil, ext.CallNamed("k", fir.V("r"))), intFn), "argument 0"},
		{untyped("name rebound in the other arm", []heap.Value{heap.FloatVal(1.5), heap.IntVal(0)}, nil,
			fir.Fn("f", fir.Ps("x", fir.TyFloat, "c", fir.TyInt), rebound), intFn), "argument 0"},
		{untyped("move of a float parameter", []heap.Value{heap.FloatVal(1.5)}, nil,
			fir.Fn("f", fir.Ps("x", fir.TyFloat), mv.CallNamed("k", fir.V("y"))), intFn), "argument 0"},
		{untyped("extern result as an int add operand", nil, half,
			fir.Fn("f", nil, extAdd.Halt(fir.V("s")))), "add operand 0 is float"},
		{untyped("extern result as a load base", nil, half,
			fir.Fn("f", nil, extLoad.Halt(fir.V("w")))), "load operand 0 is float"},
		{untyped("name rebound in the other arm feeds an int add", []heap.Value{heap.FloatVal(1.5), heap.IntVal(0)}, nil,
			fir.Fn("f", fir.Ps("x", fir.TyFloat, "c", fir.TyInt), reboundAdd)), "add operand 0 is float"},
		{untyped("int add rebinding its float operand's name", []heap.Value{heap.FloatVal(1.5)}, nil,
			fir.Fn("f", fir.Ps("x", fir.TyFloat), self.Halt(fir.V("x")))), "add operand 0 is float"},
		{untyped("if condition: a float parameter moved to an int name", []heap.Value{heap.FloatVal(0.5)}, nil,
			fir.Fn("f", fir.Ps("x", fir.TyFloat), mvIf.If(fir.V("y"), fir.NewBuilder().Halt(fir.I(1)), fir.NewBuilder().Halt(fir.I(2))))),
			"if condition is float"},
	} {
		t.Run(tc.s.name, func(t *testing.T) {
			for _, n := range []uint64{0, 1, 2, 3} {
				ref, _ := lockstep(t, tc.s, n, 0)
				var rte *rt.RuntimeError
				if ref.Status() != rt.StatusFailed || !errors.As(ref.Err(), &rte) || !strings.Contains(rte.Error(), tc.want) {
					t.Fatalf("vm: status=%s err=%v, want a failure naming %q", ref.Status(), ref.Err(), tc.want)
				}
			}
		})
	}
}

// TestConstantsKeepTheirBits: immediates share a constant slot only when
// they are the same bits, so 0.0 and -0.0 stay apart (1/-0.0 < 1/0.0).
func TestConstantsKeepTheirBits(t *testing.T) {
	b := fir.NewBuilder()
	b.Let("n", fir.TyFloat, fir.OpFDiv, fir.F(1), fir.F(math.Copysign(0, -1)))
	b.Let("p", fir.TyFloat, fir.OpFDiv, fir.F(1), fir.F(0))
	b.Let("c", fir.TyInt, fir.OpFLt, fir.V("n"), fir.V("p"))
	s := subject{name: "signed zeros", prog: fir.NewProgram("main", fir.Fn("main", nil, b.Halt(fir.V("c")))), startAt: -1}
	if ref, _ := lockstep(t, s, 0, 0); ref.HaltCode() != 1 {
		t.Fatalf("vm halts %d, want 1", ref.HaltCode())
	}
}

// TestGridKernelIsSpecialised: compiled at the benchmark's shape, the grid
// has three loops that call no extern — init_grid's, do_computation's and
// checksum's, do_computation's being where the engine spends its time —
// and every int and float operator, compare, branch, load and store in
// them has its kind-specialised form. A compiler or optimiser change that
// loses a kind proof in the kernel fails here instead of quietly slowing
// the engine's hottest loop.
func TestGridKernelIsSpecialised(t *testing.T) {
	w, err := workload.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program(workload.Params{Nodes: 4, Size: 32, Aux: 32, Steps: 100, CheckpointInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	c, err := jit.Precompile(prog)
	if err != nil {
		t.Fatal(err)
	}
	loops := jit.ExternFreeLoops(c)
	t.Logf("extern-free loops %v; an instruction is %d bytes", loops, jit.InsSize)
	if len(loops) != 3 {
		t.Fatalf("extern-free loops %v, want init_grid's, do_computation's and checksum's", loops)
	}
	for _, l := range loops {
		for _, g := range jit.GenericForms(c, l) {
			t.Error(g)
		}
	}
}

// TestGridLoopCallsMoveInPlace: compiled at the benchmark's shape, no call
// between two functions of one of the grid's extern-free loops moves a
// parameter of its caller out of place, and each call between the column
// loop's header and its join — two per cell — plans at most one move, the
// column counter or the boundary flag. The members' shared parameters, the
// hoisted invariants among them, sit at the same slot in caller and
// callee, so passing them on is an identity the move planner drops; a
// layout that shifts them costs a move per word per call. What a call
// still moves is what it computed: a loop entry's counters and hoisted
// values, the checksum loop's sum and counter. Per-app totals are logged.
func TestGridLoopCallsMoveInPlace(t *testing.T) {
	for _, name := range []string{"grid", "kvserve", "pipeline", "taskfarm", "allreduce"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Defaults()
		if name == "grid" {
			p = workload.Params{Nodes: 4, Size: 32, Aux: 32, Steps: 100, CheckpointInterval: 50}
		}
		prog, err := w.Program(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := jit.Precompile(prog)
		if err != nil {
			t.Fatal(err)
		}
		calls := jit.KnownCalls(c)
		total := 0
		for _, k := range calls {
			total += k.Moves
		}
		t.Logf("%s: %d known calls, %d planned moves", name, len(calls), total)
		if name != "grid" {
			continue
		}
		loops := jit.ExternFreeLoops(c)
		if len(loops) != 3 {
			t.Fatalf("extern-free loops %v, want init_grid's, do_computation's and checksum's", loops)
		}
		loopOf := make(map[string]int)
		for i, l := range loops {
			for _, f := range l {
				loopOf[f] = i + 1
			}
		}
		entered := make(map[string]bool) // called from outside its loop
		for _, k := range calls {
			if loopOf[k.To] != 0 && loopOf[k.From] != loopOf[k.To] {
				entered[k.To] = true
			}
		}
		hot := 0
		for _, k := range calls {
			if l := loopOf[k.From]; l == 0 || l != loopOf[k.To] {
				continue
			}
			t.Logf("grid: %s → %s: %d moves", k.From, k.To, k.Moves)
			if k.Shifted > 0 {
				t.Errorf("grid: %s → %s moves %d parameters out of place", k.From, k.To, k.Shifted)
			}
			if k.From != k.To && !entered[k.From] && !entered[k.To] {
				hot++
				if k.Moves > 1 {
					t.Errorf("grid: %s → %s plans %d moves, want at most 1", k.From, k.To, k.Moves)
				}
			}
		}
		if hot == 0 {
			t.Error("grid: no call between the column loop's header and join")
		}
	}
}
