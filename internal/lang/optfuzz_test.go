package lang

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/jit"
	"repro/internal/rt"
	"repro/internal/vm"
)

// fuzzFuel caps the unoptimised run. Hoisting may add bindings at every
// loop entry, so the optimised run gets a wider cap: it only has to halt
// or fail the same way, not in fewer steps.
const fuzzFuel = 200_000

// FuzzOptimize: any source that compiles passes fir.Check after the
// mid-end; a program that halts or fails within the fuel cap without the
// mid-end halts or fails identically with it on vm; and the optimised
// program runs on jit exactly as on vm — status, halt code, error text,
// output and step count.
func FuzzOptimize(f *testing.F) {
	for _, src := range seedSources(f) {
		f.Add(src)
	}
	sigs := cluster.Externs()
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	f.Fuzz(func(t *testing.T, src string) {
		plain, err := CompileUnoptimized(src, sigs)
		if err != nil {
			return
		}
		opt, err := CompileUnoptimized(src, sigs)
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		fir.Optimize(opt)
		if err := fir.Check(opt, sigs); err != nil {
			t.Fatalf("optimised program fails Check: %v\n%s", err, fir.Format(opt))
		}
		want, err := fuzzRun(plain, fuzzFuel, onVM)
		if errors.Is(err, rt.ErrFuelExhausted) {
			return
		}
		got, _ := fuzzRun(opt, 16*fuzzFuel, onVM)
		if fast, _ := fuzzRun(opt, 16*fuzzFuel, onJIT); fast != got {
			t.Fatalf("optimised on jit %+v, on vm %+v\n%s", fast, got, src)
		}
		got.steps, want.steps = 0, 0 // the mid-end exists to change these
		if got != want {
			t.Fatalf("optimised %+v, plain %+v\n%s", got, want, src)
		}
	})
}

type fuzzOutcome struct {
	status rt.Status
	halt   int64
	err    string
	stdout string
	steps  uint64
}

func onVM(p *fir.Program, cfg rt.Config) rt.Proc  { return vm.NewProcess(p, nil, cfg) }
func onJIT(p *fir.Program, cfg rt.Config) rt.Proc { return jit.NewMachine(p, nil, cfg) }

func fuzzRun(p *fir.Program, fuel uint64, engine func(*fir.Program, rt.Config) rt.Proc) (fuzzOutcome, error) {
	var out bytes.Buffer
	proc := engine(p, rt.Config{Fuel: fuel, Stdout: &out, Args: []int64{3, 4}, Seed: 7})
	if err := proc.Start(); err != nil {
		return fuzzOutcome{err: err.Error()}, err
	}
	st, err := proc.Run()
	o := fuzzOutcome{status: st, halt: proc.HaltCode(), stdout: out.String(), steps: proc.Steps()}
	if err != nil {
		o.err = err.Error()
	}
	return o, err
}
