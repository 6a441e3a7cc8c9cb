package vm

import (
	"testing"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
)

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

// TestRunQuantumDrivesOneProcess: RunQuantum steps exactly the chosen
// process and counts one context switch.
func TestRunQuantumDrivesOneProcess(t *testing.T) {
	s := NewScheduler(50)
	a := startSpin(t, 100_000, nil)
	b := startSpin(t, 100_000, nil)
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Proc(0) != a || s.Proc(1) != b {
		t.Fatalf("Len/Proc wiring broken")
	}
	st, err := s.RunQuantum(0)
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusRunning {
		t.Fatalf("status = %s", st)
	}
	if a.Steps() != 50 {
		t.Fatalf("process 0 ran %d steps, want 50", a.Steps())
	}
	if b.Steps() != 0 {
		t.Fatalf("process 1 ran %d steps, want 0", b.Steps())
	}
	if s.Switches() != 1 {
		t.Fatalf("switches = %d, want 1", s.Switches())
	}
}
