package lang_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/workload"
	_ "repro/internal/workload/apps"
)

// The optimiser oracle: every program is compiled twice, once through the
// FIR mid-end and once straight from the lowering, and the two must be
// indistinguishable on both engines — status, halt code, stdout and the
// text of any runtime error — while the optimised encoding is no larger.

var engines = []string{"vm", "jit"}

// outcome is everything a run shows the outside world.
type outcome struct {
	status rt.Status
	halt   int64
	err    string
	stdout string
}

func runProcess(t *testing.T, p *fir.Program, eng string, fuel uint64) (outcome, uint64) {
	t.Helper()
	e, err := engine.Get(eng)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	proc := e.New(p, rt.Config{Stdout: &out, Fuel: fuel, Args: []int64{3, 4}, Seed: 12345})
	if err := proc.Start(); err != nil {
		t.Fatalf("%s: Start: %v", eng, err)
	}
	st, err := proc.Run()
	o := outcome{status: st, halt: proc.HaltCode(), stdout: out.String()}
	if err != nil {
		o.err = err.Error()
	}
	return o, proc.Steps()
}

func checkNoGrowth(t *testing.T, plain, opt *fir.Program) {
	t.Helper()
	if a, b := len(fir.EncodeProgram(plain)), len(fir.EncodeProgram(opt)); b > a {
		t.Errorf("optimised program encodes to %d B, its plain lowering to %d B", b, a)
	}
}

// oracleSources is the conformance corpus plus programs that stop on a
// runtime error, whose text names the function that failed.
func oracleSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"trap-div": `
int f(int a, int b) { return a / b; }
int main() {
	int s = 0;
	for (int i = 3; i >= 0; i -= 1) { s += f(12, i); }
	return s;
}`,
		"trap-bounds": `
int main() {
	ptr a = alloc(4);
	int s = 0;
	for (int i = 0; i < 8; i += 1) { a[i] = i; s += a[i]; }
	return s;
}`,
		// A loop-invariant division behind a guard: it must trap where
		// it is written, not at the loop's entry.
		"trap-guarded": `
int main() {
	int d = getarg(0) - 3;
	int s = 0;
	for (int i = 0; i < 5; i += 1) {
		if (i > 2) { s += 100 / d; } else { s += i; }
	}
	return s;
}`,
	}
	files, err := filepath.Glob("../conformance/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("conformance corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(f), ".mc")] = string(b)
	}
	return srcs
}

func TestOptimizerOracleConformance(t *testing.T) {
	sigs := rt.StdExterns().Sigs()
	for name, src := range oracleSources(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := lang.CompileUnoptimized(src, sigs)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := lang.Compile(src, sigs)
			if err != nil {
				t.Fatal(err)
			}
			checkNoGrowth(t, plain, opt)
			for _, eng := range engines {
				want, _ := runProcess(t, plain, eng, 50_000_000)
				got, _ := runProcess(t, opt, eng, 50_000_000)
				if got != want {
					t.Errorf("%s: optimised %+v, plain %+v", eng, got, want)
				}
				if strings.HasPrefix(name, "trap-") && want.status != rt.StatusFailed {
					t.Errorf("%s: %s did not fail: %+v", eng, name, want)
				}
			}
		})
	}
}

// runApp runs a workload's default shape on one engine with the given
// program and reduces the result to each node's outcome and the steps all
// nodes ran.
func runApp(t *testing.T, w workload.Workload, p workload.Params, prog *fir.Program) (map[int64]outcome, uint64) {
	t.Helper()
	var out bytes.Buffer
	res, err := workload.Run(w, p, workload.RunConfig{Program: prog, Stdout: &out, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64]outcome, len(res.Nodes))
	var steps uint64
	for n, nr := range res.Nodes {
		got[n] = outcome{status: nr.Status, halt: nr.Halt, err: nr.Err}
		steps += nr.Steps
	}
	// Nodes interleave their output; compare it as a multiset of lines.
	got[-1] = outcome{stdout: fmt.Sprint(sortedLines(out.String()))}
	return got, steps
}

func sortedLines(s string) []string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return lines
}

func TestOptimizerOracleApps(t *testing.T) {
	gridMC, err := os.ReadFile("testdata/grid.mc")
	if err != nil {
		t.Fatal(err)
	}
	type app struct {
		label   string
		w       workload.Workload
		compile func(workload.Params) (*fir.Program, error)
	}
	var apps []app
	for _, name := range workload.Names() {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app{name, w, w.Program})
	}
	gw, err := workload.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	apps = append(apps, app{"grid.mc", gw, func(workload.Params) (*fir.Program, error) {
		sigs := cluster.Externs()
		sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
		return lang.Compile(string(gridMC), sigs)
	}})

	for _, a := range apps {
		t.Run(a.label, func(t *testing.T) {
			p, err := workload.Normalize(a.w, workload.Params{})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := lang.Unoptimized(func() (*fir.Program, error) { return a.compile(p) })
			if err != nil {
				t.Fatal(err)
			}
			opt, err := a.compile(p)
			if err != nil {
				t.Fatal(err)
			}
			checkNoGrowth(t, plain, opt)
			steps := make(map[string]uint64)
			for _, eng := range engines {
				p.Engine = eng
				want, _ := runApp(t, a.w, p, plain)
				got, n := runApp(t, a.w, p, opt)
				steps[eng] = n
				if len(got) != len(want) {
					t.Fatalf("%s: optimised run has %d nodes, plain %d", eng, len(got), len(want))
				}
				for n, o := range want {
					if got[n] != o {
						t.Errorf("%s node %d: optimised %+v, plain %+v", eng, n, got[n], o)
					}
				}
			}
			// The engines stay step-for-step identical on what the
			// optimiser emits.
			if steps["vm"] != steps["jit"] {
				t.Errorf("optimised program: vm ran %d steps, jit %d", steps["vm"], steps["jit"])
			}
		})
	}
}
