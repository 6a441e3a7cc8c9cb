package grid

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func params(nodes, rows, cols, steps, ck int) Params {
	return Params{Nodes: nodes, RowsPerNode: rows, Cols: cols, Steps: steps, CheckpointInterval: ck}
}

func TestValidate(t *testing.T) {
	good := params(2, 4, 8, 10, 5)
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(%+v): %v", good, err)
	}
	for _, bad := range []Params{
		params(0, 4, 8, 10, 5),
		params(2, 0, 8, 10, 5),
		params(2, 4, 2, 10, 5),
		params(2, 4, 8, 0, 5),
		params(2, 4, 8, 10, 0),
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

func TestCompileProgram(t *testing.T) {
	if _, err := CompileProgram(); err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
}

// TestCompileAllocatesUnderOneMB bounds a compile of Source by bytes
// allocated, not by wall clock: the lexer once converted the remaining
// source to a string per punctuation candidate, 17.9 MB per compile.
func TestCompileAllocatesUnderOneMB(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CompileProgram(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("compiling grid.Source allocated %d bytes, want under 1 MiB", got)
	}
}

// TestLexerCorpusCopyIsCurrent keeps internal/lang's copy of Source — its
// fuzz seed and matcher-equivalence corpus; lang cannot import this
// package — equal to the real one.
func TestLexerCorpusCopyIsCurrent(t *testing.T) {
	b, err := os.ReadFile("../lang/testdata/grid.mc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), strings.TrimLeft(Source, "\n")) {
		t.Fatal("internal/lang/testdata/grid.mc no longer ends with grid.Source; copy it again")
	}
}

func TestSingleNodeMatchesReference(t *testing.T) {
	p := params(1, 6, 8, 12, 4)
	res, err := Run(p, nil, 60*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := Reference(p)
	if res.Checksums[0] != want[0] {
		t.Fatalf("checksum = %d, want %d", res.Checksums[0], want[0])
	}
}

func TestMultiNodeMatchesReference(t *testing.T) {
	p := params(3, 4, 8, 12, 4)
	res, err := Run(p, nil, 120*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := Reference(p)
	for n := range want {
		if res.Checksums[n] != want[n] {
			t.Fatalf("node %d checksum = %d, want %d (all: got %v want %v)",
				n, res.Checksums[n], want[n], res.Checksums, want)
		}
	}
}

func TestFourNodesLongerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long grid run")
	}
	p := params(4, 5, 10, 24, 6)
	res, err := Run(p, nil, 120*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := Reference(p)
	for n := range want {
		if res.Checksums[n] != want[n] {
			t.Fatalf("node %d checksum = %d, want %d", n, res.Checksums[n], want[n])
		}
	}
}

// TestWorkersMatchReference pins the parallel engine's headline
// guarantee: a bounded worker pool of any width — including width 1,
// where a node parked in a border receive must lend its slot to the node
// that will send to it — produces checksums bit-identical to the
// sequential Go reference, with and without an injected failure.
func TestWorkersMatchReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := params(3, 4, 8, 12, 4)
		p.Workers = workers
		res, err := Run(p, nil, 120*time.Second)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := Reference(p)
		for n := range want {
			if res.Checksums[n] != want[n] {
				t.Fatalf("workers=%d node %d checksum = %d, want %d", workers, n, res.Checksums[n], want[n])
			}
		}
	}
	p := params(3, 4, 8, 16, 4)
	p.Workers = 2
	fail := &FailurePlan{Node: 1, AfterCheckpoints: 1, RestartDelay: 20 * time.Millisecond}
	res, err := Run(p, fail, 120*time.Second)
	if err != nil {
		t.Fatalf("workers=2 with failure: %v", err)
	}
	want := Reference(p)
	for n := range want {
		if res.Checksums[n] != want[n] {
			t.Fatalf("workers=2 failure run: node %d checksum = %d, want %d", n, res.Checksums[n], want[n])
		}
	}
}

// TestFailureRecoveryMatchesReference is the paper's headline behaviour
// (Figure 2): kill a node mid-run, resurrect it from its checkpoint on
// another (virtual) machine, survivors roll back their last speculation —
// and the final answer is bit-identical to the failure-free run.
func TestFailureRecoveryMatchesReference(t *testing.T) {
	p := params(3, 4, 8, 20, 4)
	fail := &FailurePlan{Node: 1, AfterCheckpoints: 2, RestartDelay: 30 * time.Millisecond}
	res, err := Run(p, fail, 120*time.Second)
	if err != nil {
		t.Fatalf("Run with failure: %v", err)
	}
	want := Reference(p)
	for n := range want {
		if res.Checksums[n] != want[n] {
			t.Fatalf("node %d checksum = %d, want %d (failure corrupted the computation)",
				n, res.Checksums[n], want[n])
		}
	}
	if res.Resurrections != 1 {
		t.Fatalf("resurrections = %d, want 1", res.Resurrections)
	}
	if res.Rollbacks == 0 {
		t.Fatal("no MSG_ROLL deliveries: survivors never rolled back")
	}
}

func TestFailureOfEdgeNode(t *testing.T) {
	if testing.Short() {
		t.Skip("long grid run")
	}
	p := params(3, 4, 8, 16, 4)
	fail := &FailurePlan{Node: 0, AfterCheckpoints: 1, RestartDelay: 20 * time.Millisecond}
	res, err := Run(p, fail, 120*time.Second)
	if err != nil {
		t.Fatalf("Run with failure: %v", err)
	}
	want := Reference(p)
	for n := range want {
		if res.Checksums[n] != want[n] {
			t.Fatalf("node %d checksum = %d, want %d", n, res.Checksums[n], want[n])
		}
	}
}

func TestReferenceDeterministic(t *testing.T) {
	p := params(2, 4, 6, 10, 5)
	a := Reference(p)
	b := Reference(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reference not deterministic: %v vs %v", a, b)
		}
	}
}

func TestCheckpointNameDistinct(t *testing.T) {
	if CheckpointName(0) == CheckpointName(1) {
		t.Fatal("checkpoint names collide")
	}
}

// TestStepBudgetPerCell pins what the FIR mid-end buys the grid: a
// failure-free 4 × 32 × 32 run of 10 steps averages at most 37 engine
// steps per cell update (83 before the optimiser ran on every compile),
// and both engines count the same steps. A lowering or optimiser change
// that gives the saving back fails here, not only in the benchmark.
func TestStepBudgetPerCell(t *testing.T) {
	p := params(4, 32, 32, 10, 5)
	var steps [2]uint64
	for i, eng := range []string{"vm", "jit"} {
		wp := fromParams(p)
		wp.Engine = eng
		res, err := workload.RunVerified(W{}, wp, workload.RunConfig{Timeout: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		for _, n := range res.Nodes {
			steps[i] += n.Steps
		}
	}
	if steps[0] != steps[1] {
		t.Fatalf("vm ran %d steps, jit %d", steps[0], steps[1])
	}
	cells := uint64(p.Nodes * p.RowsPerNode * p.Cols * p.Steps)
	t.Logf("%d steps, %.1f per cell update", steps[0], float64(steps[0])/float64(cells))
	if steps[0] > 37*cells {
		t.Fatalf("%d steps for %d cell updates: %.1f per cell, budget 37",
			steps[0], cells, float64(steps[0])/float64(cells))
	}
}
