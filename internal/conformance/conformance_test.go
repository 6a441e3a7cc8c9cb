// Package conformance is the differential engine test suite: every MojC
// program in testdata is compiled once and executed on every execution
// engine — the FIR interpreter (internal/vm) and the threaded-code engine
// (internal/jit) — which must produce byte-identical output, the same
// exit status and the same halt code. The paper's migration story (§3,
// §4.2) depends on exactly this property: a process may hop between
// heterogeneous nodes mid-run, so the engines cannot be allowed to
// drift. The programs run as compiled — lowered, optimised and checked;
// internal/lang's optimiser oracle compares them with their unoptimised
// lowering.
package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rt"
)

// run executes a compiled program on one engine and returns its
// observable behaviour.
func run(t *testing.T, prog *core.Program, eng, label string) (rt.Status, int64, string) {
	t.Helper()
	var out bytes.Buffer
	p, err := core.NewProcess(prog, eng, rt.Config{
		Stdout: &out,
		Fuel:   50_000_000,
		Args:   []int64{3, 4},
		Seed:   12345,
	})
	if err != nil {
		t.Fatalf("%s: NewProcess: %v", label, err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("%s: Start: %v", label, err)
	}
	st, err := p.Run()
	if st == rt.StatusFailed {
		t.Fatalf("%s: runtime failure: %v", label, err)
	}
	return st, p.HaltCode(), out.String()
}

func loadCorpus(t *testing.T) map[string]string {
	t.Helper()
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[string]string)
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".mc")
		if !ok {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		corpus[name] = string(src)
	}
	if len(corpus) == 0 {
		t.Fatal("no .mc programs in testdata")
	}
	return corpus
}

func TestBackendsAgree(t *testing.T) {
	for name, src := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			prog, err := core.Compile(src, nil)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}

			baseSt, baseHalt, baseOut := run(t, prog, "vm", "vm")
			if baseSt != rt.StatusHalted {
				t.Fatalf("vm: status = %s, want halted", baseSt)
			}
			st, halt, out := run(t, prog, "jit", "jit")
			if st != baseSt {
				t.Errorf("jit: status = %s, vm = %s", st, baseSt)
			}
			if halt != baseHalt {
				t.Errorf("jit: halt = %d, vm = %d", halt, baseHalt)
			}
			if out != baseOut {
				t.Errorf("jit: output diverged\njit: %q\nvm:  %q", out, baseOut)
			}
		})
	}
}

// TestBackendsDeterministic re-runs each program per engine and requires
// run-to-run identical behaviour (the cluster's bit-exact replay after a
// failure depends on it).
func TestBackendsDeterministic(t *testing.T) {
	for name, src := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			prog, err := core.Compile(src, nil)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, backend := range engine.Names() {
				_, h1, o1 := run(t, prog, backend, backend+"/first")
				_, h2, o2 := run(t, prog, backend, backend+"/second")
				if h1 != h2 || o1 != o2 {
					t.Errorf("engine %v not deterministic: halt %d vs %d, out %q vs %q",
						backend, h1, h2, o1, o2)
				}
			}
		})
	}
}
