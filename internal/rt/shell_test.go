package rt_test

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
)

// TestFailedStartLeavesTheProcessFailed: on every engine, a Start or
// StartAt that fails — in the type check, in code generation or in the
// calling convention — leaves the process StatusFailed with Err set to the
// error it returned; it cannot be started again or run.
func TestFailedStartLeavesTheProcessFailed(t *testing.T) {
	halt := fir.NewBuilder().Halt(fir.I(0))
	wellTyped := fir.NewProgram("main",
		fir.Fn("main", nil, halt),
		fir.Fn("k", fir.Ps("n", fir.TyInt), fir.NewBuilder().Halt(fir.V("n"))))
	illTyped := fir.NewProgram("main", fir.Fn("main", nil, fir.NewBuilder().Halt(fir.F(1.5))))
	noExtern := fir.NewBuilder()
	noExtern.Extern("x", fir.TyInt, "no_such_extern")
	unbound := fir.NewProgram("main", fir.Fn("main", nil, fir.NewBuilder().Halt(fir.V("nobody_bound_me"))))

	cases := []struct {
		name  string
		prog  *fir.Program
		start func(p rt.Proc) error
	}{
		{"Start: ill-typed program", illTyped, rt.Proc.Start},
		{"Start: unknown extern", fir.NewProgram("main", fir.Fn("main", nil, noExtern.Halt(fir.V("x")))), rt.Proc.Start},
		{"StartAt: program does not compile", unbound, func(p rt.Proc) error { return p.StartAt(0, nil) }},
		{"StartAt: no such function", wellTyped, func(p rt.Proc) error { return p.StartAt(7, nil) }},
		{"StartAt: wrong arity", wellTyped, func(p rt.Proc) error { return p.StartAt(1, nil) }},
		{"StartAt: wrong argument kind", wellTyped, func(p rt.Proc) error {
			return p.StartAt(1, []heap.Value{heap.FloatVal(1)})
		}},
	}
	for _, name := range engine.Names() {
		eng, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				p := eng.New(c.prog, rt.Config{})
				err := c.start(p)
				if err == nil {
					t.Fatal("started")
				}
				if p.Status() != rt.StatusFailed || p.Err() != err {
					t.Fatalf("after %v: status=%s Err()=%v, want failed with that error", err, p.Status(), p.Err())
				}
				if err := p.Start(); err == nil || p.Status() != rt.StatusFailed {
					t.Fatalf("second Start: err=%v status=%s, want refused", err, p.Status())
				}
				if err := p.StartAt(0, nil); err == nil || p.Status() != rt.StatusFailed {
					t.Fatalf("StartAt after the failure: err=%v status=%s, want refused", err, p.Status())
				}
				if _, err := p.Run(); !errors.Is(err, rt.ErrNotRunning) {
					t.Fatalf("Run: %v, want ErrNotRunning", err)
				}
			})
		}
		t.Run(name+"/a started process cannot be started again", func(t *testing.T) {
			p := eng.New(wellTyped, rt.Config{})
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err == nil || p.Status() != rt.StatusRunning || p.Err() != nil {
				t.Fatalf("second Start: err=%v status=%s Err()=%v, want refused and still running", err, p.Status(), p.Err())
			}
		})
	}
}
