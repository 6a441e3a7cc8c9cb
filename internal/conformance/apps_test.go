package conformance

// Differential engine testing at the application level: the shared .mc
// corpus (conformance_test.go) exercises single processes; this file runs
// every registered workload — the paper's grid plus allreduce, taskfarm
// and pipeline — through the in-process cluster on each execution engine
// and requires the engines to agree on every observable: process output,
// per-node halt codes, and the exact per-node step counts. Step counts
// are comparable across engines because both charge exactly one step per
// FIR node (the jit's fused superinstructions included), and they must also be
// identical run-to-run within an engine — the cluster's bit-exact replay
// after a failure depends on that determinism.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rt"
	"repro/internal/workload"

	_ "repro/internal/workload/apps" // register grid, allreduce, taskfarm, pipeline
)

// appParams shrinks each app so the full matrix stays test-suite fast.
func appParams(name string) workload.Params {
	switch name {
	case "grid":
		return workload.Params{Nodes: 3, Size: 3, Aux: 6, Steps: 8, CheckpointInterval: 4}
	case "allreduce":
		return workload.Params{Nodes: 3, Size: 4, Steps: 6, CheckpointInterval: 2}
	case "taskfarm":
		return workload.Params{Nodes: 3, Size: 4, Steps: 4, CheckpointInterval: 2}
	case "pipeline":
		return workload.Params{Nodes: 4, Size: 3, Aux: 4, Steps: 6, CheckpointInterval: 2}
	}
	return workload.Params{}
}

type appRun struct {
	halts map[int64]int64
	steps map[int64]uint64
	out   string
}

// runApp executes one workload on one engine, verified against its
// sequential reference, and returns its observables. Output lines are
// sorted: nodes share the stdout and interleave nondeterministically,
// but the multiset of lines is engine-invariant.
func runApp(t *testing.T, w workload.Workload, eng string) appRun {
	t.Helper()
	p := appParams(w.Name())
	p.Engine = eng
	p.Workers = 2
	var out bytes.Buffer
	res, err := workload.RunVerified(w, p, workload.RunConfig{Timeout: time.Minute, Stdout: &out})
	if err != nil {
		t.Fatalf("%s on %s: %v", w.Name(), eng, err)
	}
	run := appRun{halts: make(map[int64]int64), steps: make(map[int64]uint64)}
	for n, st := range res.Nodes {
		if st.Status == rt.StatusHalted {
			run.halts[n] = st.Halt
		}
		run.steps[n] = st.Steps
	}
	lines := strings.Split(out.String(), "\n")
	sort.Strings(lines)
	run.out = strings.Join(lines, "\n")
	return run
}

func haltString(m map[int64]int64) string {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d:%d ", k, m[k])
	}
	return b.String()
}

// TestAppsEnginesAgree: for every registered workload, the interpreter
// and the threaded-code engine produce identical outputs and per-node halt codes,
// and each engine's per-node step counts are identical across repeated
// runs (the cluster's bit-exact replay after failure depends on that
// determinism).
func TestAppsEnginesAgree(t *testing.T) {
	engines := engine.Names()
	if len(engines) < 2 {
		t.Fatalf("engine registry has %v, want at least vm and jit", engines)
	}
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			runs := make(map[string]appRun, len(engines))
			for _, eng := range engines {
				first := runApp(t, w, eng)
				second := runApp(t, w, eng)
				for n, s := range first.steps {
					if second.steps[n] != s {
						t.Errorf("%s: node %d steps not deterministic: %d vs %d", eng, n, s, second.steps[n])
					}
				}
				runs[eng] = first
			}
			base := runs[engines[0]]
			for _, eng := range engines[1:] {
				got := runs[eng]
				if haltString(got.halts) != haltString(base.halts) {
					t.Errorf("halt codes diverged:\n%s: %s\n%s: %s", eng, haltString(got.halts), engines[0], haltString(base.halts))
				}
				if got.out != base.out {
					t.Errorf("output diverged:\n%s: %q\n%s: %q", eng, got.out, engines[0], base.out)
				}
				for n, s := range base.steps {
					if got.steps[n] != s {
						t.Errorf("node %d steps diverged: %s=%d %s=%d", n, eng, got.steps[n], engines[0], s)
					}
				}
			}
		})
	}
}

// TestAppsEnginesAgreeUnderFaults: both engines also agree on halt codes
// when the run is driven through a one-failure fault script — checkpoint
// recovery is engine-independent. (Step counts are not compared: kill
// timing is wall-clock dependent.)
func TestAppsEnginesAgreeUnderFaults(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			node := int64(1)
			if name == "pipeline" {
				node = 0
			}
			script := workload.OneFailure(node, 1, 10*time.Millisecond)
			for _, eng := range engine.Names() {
				p := appParams(name)
				p.Engine = eng
				res, err := workload.RunVerified(w, p, workload.RunConfig{Script: script, Timeout: 2 * time.Minute})
				if err != nil {
					t.Fatalf("%s on %s under faults: %v", name, eng, err)
				}
				if res.Resurrections != 1 {
					t.Fatalf("%s on %s: resurrections = %d, want 1", name, eng, res.Resurrections)
				}
			}
		})
	}
}
