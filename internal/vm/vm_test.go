package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
)

func runProgram(t *testing.T, p *fir.Program, cfg rt.Config) (*Process, rt.Status) {
	t.Helper()
	if cfg.Fuel == 0 {
		cfg.Fuel = 1_000_000
	}
	proc := NewProcess(p, nil, cfg)
	if err := proc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st, err := proc.Run()
	if err != nil && st != rt.StatusFailed {
		t.Fatalf("Run: %v", err)
	}
	return proc, st
}

func TestFactorial(t *testing.T) {
	// fact(n, acc): if n <= 1 halt acc else fact(n-1, acc*n)
	b := fir.NewBuilder()
	b.Let("done", fir.TyInt, fir.OpLe, fir.V("n"), fir.I(1))
	fact := fir.Fn("fact", fir.Ps("n", fir.TyInt, "acc", fir.TyInt),
		b.If(fir.V("done"),
			fir.Halt{Code: fir.V("acc")},
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("n2", fir.TyInt, fir.OpSub, fir.V("n"), fir.I(1))
				b2.Let("acc2", fir.TyInt, fir.OpMul, fir.V("acc"), fir.V("n"))
				return b2.CallNamed("fact", fir.V("n2"), fir.V("acc2"))
			}()))
	main := fir.Fn("main", nil, fir.NewBuilder().CallNamed("fact", fir.I(10), fir.I(1)))
	proc, st := runProgram(t, fir.NewProgram("main", main, fact), rt.Config{})
	if st != rt.StatusHalted || proc.HaltCode() != 3628800 {
		t.Fatalf("status=%s code=%d, want halted 3628800", st, proc.HaltCode())
	}
}

func TestHeapSumProgram(t *testing.T) {
	// Fill a 100-word block with i*i, then sum it.
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(100))
	main := fir.Fn("main", nil, b.CallNamed("fill", fir.V("p"), fir.I(0)))

	fb := fir.NewBuilder()
	fb.Let("done", fir.TyInt, fir.OpGe, fir.V("i"), fir.I(100))
	fill := fir.Fn("fill", fir.Ps("p", fir.TyPtr, "i", fir.TyInt),
		fb.If(fir.V("done"),
			fir.NewBuilder().CallNamed("sum", fir.V("p"), fir.I(0), fir.I(0)),
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("sq", fir.TyInt, fir.OpMul, fir.V("i"), fir.V("i"))
				b2.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.V("i"), fir.V("sq"))
				b2.Let("i2", fir.TyInt, fir.OpAdd, fir.V("i"), fir.I(1))
				return b2.CallNamed("fill", fir.V("p"), fir.V("i2"))
			}()))

	sb := fir.NewBuilder()
	sb.Let("done", fir.TyInt, fir.OpGe, fir.V("i"), fir.I(100))
	sum := fir.Fn("sum", fir.Ps("p", fir.TyPtr, "i", fir.TyInt, "acc", fir.TyInt),
		sb.If(fir.V("done"),
			fir.Halt{Code: fir.V("acc")},
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("x", fir.TyInt, fir.OpLoad, fir.V("p"), fir.V("i"))
				b2.Let("acc2", fir.TyInt, fir.OpAdd, fir.V("acc"), fir.V("x"))
				b2.Let("i2", fir.TyInt, fir.OpAdd, fir.V("i"), fir.I(1))
				return b2.CallNamed("sum", fir.V("p"), fir.V("i2"), fir.V("acc2"))
			}()))

	proc, st := runProgram(t, fir.NewProgram("main", main, fill, sum), rt.Config{})
	want := int64(0)
	for i := int64(0); i < 100; i++ {
		want += i * i
	}
	if st != rt.StatusHalted || proc.HaltCode() != want {
		t.Fatalf("status=%s code=%d, want halted %d", st, proc.HaltCode(), want)
	}
}

// specRetryProgram speculates, increments a counter block, and rolls back
// until c is non-zero; the continuation then commits and halts with the
// counter value. Exercises the retry semantics: rollback restores the heap,
// so the counter visible at halt is the pre-speculation value plus exactly
// the committed run's single increment.
func specRetryProgram() *fir.Program {
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(1))
	main := fir.Fn("main", nil, b.Speculate("body", fir.V("p")))

	// body(c, p): p[0]++; if c == 0 rollback(1, 1) else commit(1) -> end(p)
	bb := fir.NewBuilder()
	bb.Let("x", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	bb.Let("x2", fir.TyInt, fir.OpAdd, fir.V("x"), fir.I(1))
	bb.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.V("x2"))
	bb.Let("first", fir.TyInt, fir.OpEq, fir.V("c"), fir.I(0))
	body := fir.Fn("body", fir.Ps("c", fir.TyInt, "p", fir.TyPtr),
		bb.If(fir.V("first"),
			fir.NewBuilder().Rollback(fir.I(1), fir.I(1)),
			fir.NewBuilder().Commit(fir.I(1), "end", fir.V("p"))))

	eb := fir.NewBuilder()
	eb.Let("v", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	end := fir.Fn("end", fir.Ps("p", fir.TyPtr), eb.Halt(fir.V("v")))
	return fir.NewProgram("main", main, body, end)
}

func TestSpeculateRollbackRetryCommit(t *testing.T) {
	proc, st := runProgram(t, specRetryProgram(), rt.Config{})
	// First entry increments to 1, rolls back (restores 0), re-enters with
	// c=1, increments to 1, commits: halt code 1.
	if st != rt.StatusHalted || proc.HaltCode() != 1 {
		t.Fatalf("status=%s code=%d, want halted 1", st, proc.HaltCode())
	}
	ss := proc.Spec().Stats()
	if ss.Enters != 1 || ss.Rollbacks != 1 || ss.Commits != 1 {
		t.Fatalf("spec stats = %+v, want 1 enter, 1 rollback, 1 commit", ss)
	}
	if proc.Spec().Depth() != 0 {
		t.Fatalf("depth = %d, want 0", proc.Spec().Depth())
	}
}

func TestTrapSpeculationRollsBackOnRuntimeError(t *testing.T) {
	// body(c, p): if c == 0, store out of bounds (traps -> rollback with
	// c=rt.TrapC); else commit and halt with p[0], which must be the restored
	// pre-trap value.
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(2))
	b.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.I(5))
	main := fir.Fn("main", nil, b.Speculate("body", fir.V("p")))

	bb := fir.NewBuilder()
	bb.Let("first", fir.TyInt, fir.OpEq, fir.V("c"), fir.I(0))
	body := fir.Fn("body", fir.Ps("c", fir.TyInt, "p", fir.TyPtr),
		bb.If(fir.V("first"),
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("u1", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.I(99)) // speculative write
				b2.Let("u2", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(50), fir.I(1)) // out of bounds: trap
				return b2.Halt(fir.I(42))                                              // unreachable
			}(),
			fir.NewBuilder().Commit(fir.I(1), "end", fir.V("p"))))

	eb := fir.NewBuilder()
	eb.Let("v", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	end := fir.Fn("end", fir.Ps("p", fir.TyPtr), eb.Halt(fir.V("v")))

	proc, st := runProgram(t, fir.NewProgram("main", main, body, end), rt.Config{TrapSpeculation: true})
	if st != rt.StatusHalted || proc.HaltCode() != 5 {
		t.Fatalf("status=%s code=%d err=%v, want halted 5", st, proc.HaltCode(), proc.Err())
	}
}

func TestRuntimeErrorWithoutTrapFails(t *testing.T) {
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(1))
	b.Let("x", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(5))
	main := fir.Fn("main", nil, b.Halt(fir.V("x")))
	proc, st := runProgram(t, fir.NewProgram("main", main), rt.Config{})
	if st != rt.StatusFailed {
		t.Fatalf("status = %s, want failed", st)
	}
	if !errors.Is(proc.Err(), heap.ErrBounds) {
		t.Fatalf("err = %v, want bounds error", proc.Err())
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	b := fir.NewBuilder()
	b.Let("x", fir.TyInt, fir.OpDiv, fir.I(1), fir.I(0))
	main := fir.Fn("main", nil, b.Halt(fir.V("x")))
	_, st := runProgram(t, fir.NewProgram("main", main), rt.Config{})
	if st != rt.StatusFailed {
		t.Fatalf("status = %s, want failed", st)
	}
}

func TestLoadTypeMismatchTraps(t *testing.T) {
	// Store a float, load it as int: the runtime tag check must fire.
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(1))
	b.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.F(1.5))
	b.Let("x", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	main := fir.Fn("main", nil, b.Halt(fir.V("x")))
	proc, st := runProgram(t, fir.NewProgram("main", main), rt.Config{})
	if st != rt.StatusFailed {
		t.Fatalf("status = %s (err=%v), want failed", st, proc.Err())
	}
}

func TestPrintExterns(t *testing.T) {
	var out bytes.Buffer
	b := fir.NewBuilder()
	b.Extern("u1", fir.TyUnit, "print_int", fir.I(7))
	b.Extern("u2", fir.TyUnit, "print_float", fir.F(1.5))
	b.Let("s", fir.TyPtr, fir.OpAlloc, fir.I(3))
	b.Let("u3", fir.TyUnit, fir.OpStore, fir.V("s"), fir.I(0), fir.I('h'))
	b.Let("u4", fir.TyUnit, fir.OpStore, fir.V("s"), fir.I(1), fir.I('i'))
	b.Extern("u5", fir.TyUnit, "print_str", fir.V("s"))
	main := fir.Fn("main", nil, b.Halt(fir.I(0)))
	_, st := runProgram(t, fir.NewProgram("main", main), rt.Config{Stdout: &out})
	if st != rt.StatusHalted {
		t.Fatalf("status = %s", st)
	}
	want := "7\n1.5\nhi\n"
	if out.String() != want {
		t.Fatalf("output = %q, want %q", out.String(), want)
	}
}

func TestGetargAndSpecIDExterns(t *testing.T) {
	b := fir.NewBuilder()
	b.Extern("a0", fir.TyInt, "getarg", fir.I(0))
	b.Extern("a9", fir.TyInt, "getarg", fir.I(9)) // out of range -> 0
	b.Let("sum", fir.TyInt, fir.OpAdd, fir.V("a0"), fir.V("a9"))
	main := fir.Fn("main", nil, b.Halt(fir.V("sum")))
	proc, st := runProgram(t, fir.NewProgram("main", main), rt.Config{Args: []int64{41}})
	if st != rt.StatusHalted || proc.HaltCode() != 41 {
		t.Fatalf("halt = %d, want 41", proc.HaltCode())
	}
}

func TestSpecIDOrdinalExterns(t *testing.T) {
	// Inside a speculation, spec_id returns a stable non-zero ID and
	// spec_ordinal maps it to 1.
	main := fir.Fn("main", nil, fir.NewBuilder().Speculate("body"))
	bb := fir.NewBuilder()
	bb.Extern("id", fir.TyInt, "spec_id")
	bb.Extern("ord", fir.TyInt, "spec_ordinal", fir.V("id"))
	body := fir.Fn("body", fir.Ps("c", fir.TyInt),
		bb.Commit(fir.V("ord"), "end", fir.V("id")))
	end := fir.Fn("end", fir.Ps("id", fir.TyInt), fir.NewBuilder().Halt(fir.V("id")))
	proc, st := runProgram(t, fir.NewProgram("main", main, body, end), rt.Config{})
	if st != rt.StatusHalted || proc.HaltCode() == 0 {
		t.Fatalf("status=%s code=%d, want halted with non-zero id", st, proc.HaltCode())
	}
}

func TestFuelExhaustion(t *testing.T) {
	// Infinite loop must stop at the fuel limit.
	loop := fir.Fn("loop", nil, fir.Call{Fn: fir.FunLit{Name: "loop"}})
	lp := fir.NewProgram("loop", loop)
	proc := NewProcess(lp, nil, rt.Config{Fuel: 100})
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if st != rt.StatusFailed || !errors.Is(err, rt.ErrFuelExhausted) {
		t.Fatalf("status=%s err=%v, want fuel exhaustion", st, err)
	}
}

func TestStartRejectsIllTypedProgram(t *testing.T) {
	bad := fir.NewProgram("main", fir.Fn("main", nil, fir.Halt{Code: fir.F(1)}))
	proc := NewProcess(bad, nil, rt.Config{})
	if err := proc.Start(); err == nil {
		t.Fatal("Start accepted ill-typed program")
	}
}

func TestMigrateCheckpointContinues(t *testing.T) {
	// migrate with a handler that reports rt.OutcomeContinueLocal: the
	// continuation runs locally.
	b := fir.NewBuilder()
	b.Extern("tgt", fir.TyPtr, "mkstr")
	main := fir.Fn("main", nil, b.Migrate(1, fir.V("tgt"), fir.I(0), "after"))
	after := fir.Fn("after", nil, fir.NewBuilder().Halt(fir.I(5)))
	p := fir.NewProgram("main", main, after)

	proc := NewProcess(p, nil, rt.Config{Fuel: 1000})
	proc.RegisterExtern("mkstr", fir.ExternSig{Result: fir.TyPtr},
		func(p rt.Runtime, a []heap.Value) (heap.Value, error) {
			return p.Heap().AllocString("checkpoint://test")
		})
	var gotTarget string
	var gotLabel int
	proc.SetMigrateHandler(func(req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
		gotTarget = req.Target
		gotLabel = req.Label
		return rt.OutcomeContinueLocal, nil
	})
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || proc.HaltCode() != 5 {
		t.Fatalf("status=%s code=%d, want halted 5", st, proc.HaltCode())
	}
	if gotTarget != "checkpoint://test" || gotLabel != 1 {
		t.Fatalf("handler saw target=%q label=%d", gotTarget, gotLabel)
	}
}

func TestMigrateOutcomeTerminates(t *testing.T) {
	b := fir.NewBuilder()
	b.Extern("tgt", fir.TyPtr, "mkstr")
	main := fir.Fn("main", nil, b.Migrate(1, fir.V("tgt"), fir.I(0), "after"))
	after := fir.Fn("after", nil, fir.NewBuilder().Halt(fir.I(5)))
	p := fir.NewProgram("main", main, after)

	for _, tc := range []struct {
		outcome rt.MigrateOutcome
		want    rt.Status
	}{
		{rt.OutcomeMigrated, rt.StatusMigrated},
		{rt.OutcomeSuspended, rt.StatusSuspended},
	} {
		proc := NewProcess(p, nil, rt.Config{Fuel: 1000})
		proc.RegisterExtern("mkstr", fir.ExternSig{Result: fir.TyPtr},
			func(p rt.Runtime, a []heap.Value) (heap.Value, error) {
				return p.Heap().AllocString("x://y")
			})
		proc.SetMigrateHandler(func(req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
			return tc.outcome, nil
		})
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		st, err := proc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st != tc.want {
			t.Fatalf("status = %s, want %s", st, tc.want)
		}
	}
}

func TestMigrateFailureContinuesLocally(t *testing.T) {
	// Handler errors: §4.2.1 — the process continues on the original
	// machine.
	b := fir.NewBuilder()
	b.Extern("tgt", fir.TyPtr, "mkstr")
	main := fir.Fn("main", nil, b.Migrate(1, fir.V("tgt"), fir.I(0), "after"))
	after := fir.Fn("after", nil, fir.NewBuilder().Halt(fir.I(9)))
	p := fir.NewProgram("main", main, after)

	proc := NewProcess(p, nil, rt.Config{Fuel: 1000})
	proc.RegisterExtern("mkstr", fir.ExternSig{Result: fir.TyPtr},
		func(p rt.Runtime, a []heap.Value) (heap.Value, error) {
			return p.Heap().AllocString("migrate://unreachable:1")
		})
	proc.SetMigrateHandler(func(req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
		return rt.OutcomeMigrated, errors.New("connection refused")
	})
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, _ := proc.Run()
	if st != rt.StatusHalted || proc.HaltCode() != 9 {
		t.Fatalf("status=%s code=%d, want halted 9 (local continuation)", st, proc.HaltCode())
	}
}

func TestNoMigrationHandler(t *testing.T) {
	b := fir.NewBuilder()
	b.Let("tgt", fir.TyPtr, fir.OpAlloc, fir.I(1))
	main := fir.Fn("main", nil, b.Migrate(1, fir.V("tgt"), fir.I(0), "main2"))
	main2 := fir.Fn("main2", nil, fir.Halt{Code: fir.I(0)})
	proc, st := runProgram(t, fir.NewProgram("main", main, main2), rt.Config{})
	if st != rt.StatusFailed || !errors.Is(proc.Err(), rt.ErrNoMigration) {
		t.Fatalf("status=%s err=%v, want rt.ErrNoMigration", st, proc.Err())
	}
}

func TestIndirectCallThroughHeap(t *testing.T) {
	// Store a function value in the heap, load it, call it.
	b := fir.NewBuilder()
	b.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(1))
	b.Let("f", fir.TyFun(fir.TyInt), fir.OpMove, fir.FunLit{Name: "target"})
	b.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.V("f"))
	b.Let("g", fir.TyFun(fir.TyInt), fir.OpLoad, fir.V("p"), fir.I(0))
	main := fir.Fn("main", nil, b.Call(fir.V("g"), fir.I(88)))
	target := fir.Fn("target", fir.Ps("x", fir.TyInt), fir.NewBuilder().Halt(fir.V("x")))
	proc, st := runProgram(t, fir.NewProgram("main", main, target), rt.Config{})
	if st != rt.StatusHalted || proc.HaltCode() != 88 {
		t.Fatalf("status=%s code=%d, want halted 88", st, proc.HaltCode())
	}
}

func TestGCDuringExecution(t *testing.T) {
	// Allocate garbage in a loop far exceeding the arena; the default
	// collector policy must keep the process alive.
	b := fir.NewBuilder()
	b.Let("done", fir.TyInt, fir.OpGe, fir.V("i"), fir.I(2000))
	loop := fir.Fn("loop", fir.Ps("i", fir.TyInt, "keep", fir.TyPtr),
		b.If(fir.V("done"),
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("v", fir.TyInt, fir.OpLoad, fir.V("keep"), fir.I(0))
				return b2.Halt(fir.V("v"))
			}(),
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Let("junk", fir.TyPtr, fir.OpAlloc, fir.I(32))
				b2.Let("u", fir.TyUnit, fir.OpStore, fir.V("junk"), fir.I(0), fir.V("i"))
				b2.Let("i2", fir.TyInt, fir.OpAdd, fir.V("i"), fir.I(1))
				return b2.CallNamed("loop", fir.V("i2"), fir.V("keep"))
			}()))
	mb := fir.NewBuilder()
	mb.Let("keep", fir.TyPtr, fir.OpAlloc, fir.I(1))
	mb.Let("u", fir.TyUnit, fir.OpStore, fir.V("keep"), fir.I(0), fir.I(123))
	main := fir.Fn("main", nil, mb.CallNamed("loop", fir.I(0), fir.V("keep")))

	proc, st := runProgram(t, fir.NewProgram("main", main, loop),
		rt.Config{Heap: heap.Config{InitialWords: 1024, MaxWords: 8192}})
	if st != rt.StatusHalted || proc.HaltCode() != 123 {
		t.Fatalf("status=%s code=%d err=%v, want halted 123", st, proc.HaltCode(), proc.Err())
	}
	hs := proc.Heap().Stats()
	if hs.MinorGCs+hs.MajorGCs == 0 {
		t.Fatal("no collections ran despite allocation pressure")
	}
	if err := proc.Heap().CheckInvariants(); err != nil {
		t.Fatalf("invariants after run: %v", err)
	}
}

// spinProg builds `loop(n): if n <= 0 halt 0 else tick(); loop(n-1)` —
// one extern call per iteration so a yield point exists on every step.
func spinProg(iters int64) *fir.Program {
	b := fir.NewBuilder()
	b.Let("done", fir.TyInt, fir.OpLe, fir.V("n"), fir.I(0))
	loop := fir.Fn("loop", fir.Ps("n", fir.TyInt),
		b.If(fir.V("done"),
			fir.Halt{Code: fir.I(0)},
			func() fir.Expr {
				b2 := fir.NewBuilder()
				b2.Extern("t", fir.TyInt, "tick")
				b2.Let("n2", fir.TyInt, fir.OpSub, fir.V("n"), fir.I(1))
				return b2.CallNamed("loop", fir.V("n2"))
			}()))
	main := fir.Fn("main", nil, fir.NewBuilder().CallNamed("loop", fir.I(iters)))
	return fir.NewProgram("main", main, loop)
}

func startSpin(t *testing.T, iters int64, tick func(p *Process)) *Process {
	t.Helper()
	p := NewProcess(spinProg(iters), nil, rt.Config{Fuel: 10_000_000})
	p.RegisterExtern("tick", fir.ExternSig{Result: fir.TyInt},
		func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
			if tick != nil {
				tick(p)
			}
			return heap.IntVal(0), nil
		})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestYieldEndsQuantumEarly: an extern calling Yield must end a bounded
// RunSteps after the current step, while an unbounded Run ignores it.
func TestYieldEndsQuantumEarly(t *testing.T) {
	p := startSpin(t, 1000, func(p *Process) { p.Yield() })
	before := p.Steps()
	st, err := p.RunSteps(500)
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusRunning {
		t.Fatalf("status = %s, want running", st)
	}
	// The first tick extern fires on the third step of an iteration; the
	// yield must have stopped the quantum right there, far short of 500.
	if used := p.Steps() - before; used >= 500 || used == 0 {
		t.Fatalf("quantum used %d steps, want an early yield", used)
	}

	// Unbounded Run drops yield requests and finishes the program.
	st, err = p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted {
		t.Fatalf("status = %s, want halted", st)
	}
}

func TestRandIntDeterministic(t *testing.T) {
	b := fir.NewBuilder()
	b.Extern("r1", fir.TyInt, "rand_int", fir.I(1000))
	b.Extern("r2", fir.TyInt, "rand_int", fir.I(1000))
	b.Let("s", fir.TyInt, fir.OpMul, fir.V("r1"), fir.I(1000))
	b.Let("code", fir.TyInt, fir.OpAdd, fir.V("s"), fir.V("r2"))
	main := fir.Fn("main", nil, b.Halt(fir.V("code")))
	p := fir.NewProgram("main", main)
	a, _ := runProgram(t, p, rt.Config{Seed: 42})
	c, _ := runProgram(t, p, rt.Config{Seed: 42})
	if a.HaltCode() != c.HaltCode() {
		t.Fatalf("same seed produced %d and %d", a.HaltCode(), c.HaltCode())
	}
	d, _ := runProgram(t, p, rt.Config{Seed: 43})
	if a.HaltCode() == d.HaltCode() {
		t.Fatalf("different seeds produced identical stream %d", a.HaltCode())
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[rt.Status]string{
		rt.StatusReady: "ready", rt.StatusRunning: "running", rt.StatusHalted: "halted",
		rt.StatusMigrated: "migrated", rt.StatusSuspended: "suspended", rt.StatusFailed: "failed",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st, want)
		}
	}
	if !strings.Contains(rt.Status(99).String(), "99") {
		t.Error("unknown status should include its number")
	}
}
