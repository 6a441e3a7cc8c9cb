package lang

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/rt"
	"repro/internal/vm"
)

// fuzzFuel caps the unoptimised run. Hoisting may add bindings at every
// loop entry, so the optimised run gets a wider cap: it only has to halt
// or fail the same way, not in fewer steps.
const fuzzFuel = 200_000

// FuzzOptimize: any source that compiles passes fir.Check after the
// mid-end, and a program that halts or fails within the fuel cap without
// the mid-end halts or fails identically with it on vm.
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
		want, err := fuzzRun(plain, fuzzFuel)
		if errors.Is(err, rt.ErrFuelExhausted) {
			return
		}
		got, _ := fuzzRun(opt, 16*fuzzFuel)
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
}

func fuzzRun(p *fir.Program, fuel uint64) (fuzzOutcome, error) {
	var out bytes.Buffer
	proc := vm.NewProcess(p, nil, rt.Config{Fuel: fuel, Stdout: &out, Args: []int64{3, 4}, Seed: 7})
	if err := proc.Start(); err != nil {
		return fuzzOutcome{err: err.Error()}, err
	}
	st, err := proc.Run()
	o := fuzzOutcome{status: st, halt: proc.HaltCode(), stdout: out.String()}
	if err != nil {
		o.err = err.Error()
	}
	return o, err
}
