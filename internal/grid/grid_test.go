// Package grid_test holds the grid application's end-to-end regression
// tests. The application itself lives in internal/workload/apps; these
// tests drive it through the workload registry, the same path
// `mojrun -app grid` takes, in process and over the TCP transport.
package grid_test

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/frame"
	"repro/internal/migrate"
	"repro/internal/transport"
	"repro/internal/workload"
	_ "repro/internal/workload/apps"
)

func gridApp(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// params is a grid shape: Size = rows per node, Aux = columns.
func params(nodes, rows, cols, steps, ck int) workload.Params {
	return workload.Params{Nodes: nodes, Size: rows, Aux: cols, Steps: steps, CheckpointInterval: ck}
}

// run is one in-process grid run, optionally through a fault script.
func run(t *testing.T, p workload.Params, script *workload.FaultScript, timeout time.Duration) *workload.Result {
	t.Helper()
	res, err := workload.Run(gridApp(t), p, workload.RunConfig{Script: script, Timeout: timeout})
	if err != nil {
		t.Fatalf("Run(%+v): %v", p, err)
	}
	return res
}

// assertReference checks every node's halt code against the sequential
// Go reference, bit-exactly.
func assertReference(t *testing.T, p workload.Params, res *workload.Result) {
	t.Helper()
	want := gridApp(t).Reference(p)
	if len(want) != p.Nodes {
		t.Fatalf("reference covers %d nodes, want %d", len(want), p.Nodes)
	}
	for n, halt := range want {
		if got := res.Nodes[n].Halt; got != halt {
			t.Errorf("node %d checksum = %d, want %d (bit-exact reference)", n, got, halt)
		}
	}
}

// TestValidate: the grid's own parameter checks, past the generic ones
// workload.Normalize applies to every app.
func TestValidate(t *testing.T) {
	w := gridApp(t)
	good := params(2, 4, 8, 10, 5)
	if err := w.Validate(good); err != nil {
		t.Fatalf("Validate(%+v): %v", good, err)
	}
	for _, bad := range []workload.Params{
		params(0, 4, 8, 10, 5),
		params(2, 0, 8, 10, 5),
		params(2, 4, 2, 10, 5),
		params(2, 4, 8, 0, 5),
		params(2, 4, 8, 10, 0),
	} {
		if err := w.Validate(bad); err == nil || !strings.HasPrefix(err.Error(), "grid: ") {
			t.Errorf("Validate(%+v) = %v, want a grid error", bad, err)
		}
	}
}

func TestCompileProgram(t *testing.T) {
	w := gridApp(t)
	if _, err := workload.Compile(w, w.Defaults()); err != nil {
		t.Fatalf("Compile: %v", err)
	}
}

// TestCompileAllocatesUnderOneMB bounds a compile of the grid source by
// bytes allocated, not by wall clock: the lexer once converted the
// remaining source to a string per punctuation candidate, 17.9 MB per
// compile.
func TestCompileAllocatesUnderOneMB(t *testing.T) {
	w := gridApp(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w.Program(workload.Params{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("compiling the grid source allocated %d bytes, want under 1 MiB", got)
	}
}

func TestSingleNodeMatchesReference(t *testing.T) {
	p := params(1, 6, 8, 12, 4)
	assertReference(t, p, run(t, p, nil, 60*time.Second))
}

func TestMultiNodeMatchesReference(t *testing.T) {
	p := params(3, 4, 8, 12, 4)
	assertReference(t, p, run(t, p, nil, 120*time.Second))
}

func TestFourNodesLongerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long grid run")
	}
	p := params(4, 5, 10, 24, 6)
	assertReference(t, p, run(t, p, nil, 120*time.Second))
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
		assertReference(t, p, run(t, p, nil, 120*time.Second))
	}
	p := params(3, 4, 8, 16, 4)
	p.Workers = 2
	assertReference(t, p, run(t, p, workload.OneFailure(1, 1, 20*time.Millisecond), 120*time.Second))
}

// TestFailureRecoveryMatchesReference is the paper's headline behaviour
// (Figure 2): kill a node mid-run, resurrect it from its checkpoint on
// another (virtual) machine, survivors roll back their last speculation —
// and the final answer is bit-identical to the failure-free run.
func TestFailureRecoveryMatchesReference(t *testing.T) {
	p := params(3, 4, 8, 20, 4)
	res := run(t, p, workload.OneFailure(1, 2, 30*time.Millisecond), 120*time.Second)
	assertReference(t, p, res)
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
	res := run(t, p, workload.OneFailure(0, 1, 20*time.Millisecond), 120*time.Second)
	assertReference(t, p, res)
	if res.Resurrections != 1 {
		t.Fatalf("resurrections = %d, want 1", res.Resurrections)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	w := gridApp(t)
	p := params(2, 4, 6, 10, 5)
	a, b := w.Reference(p), w.Reference(p)
	if len(a) != p.Nodes || len(b) != len(a) {
		t.Fatalf("reference sizes %d and %d, want %d", len(a), len(b), p.Nodes)
	}
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("reference not deterministic: %v vs %v", a, b)
		}
	}
}

func TestCheckpointNameDistinct(t *testing.T) {
	w := gridApp(t)
	if w.CheckpointName(0) == w.CheckpointName(1) {
		t.Fatal("checkpoint names collide")
	}
}

// TestStepBudgetPerCell pins what the FIR mid-end buys the grid: a
// failure-free 4 × 32 × 32 run of 10 steps averages at most 37 engine
// steps per cell update (83 before the optimiser ran on every compile),
// and both engines count the same steps. A lowering or optimiser change
// that gives the saving back fails here, not only in the benchmark.
func TestStepBudgetPerCell(t *testing.T) {
	w := gridApp(t)
	p := params(4, 32, 32, 10, 5)
	var steps [2]uint64
	for i, eng := range []string{"vm", "jit"} {
		p.Engine = eng
		res, err := workload.RunVerified(w, p, workload.RunConfig{Timeout: time.Minute})
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
	cells := uint64(p.Nodes * p.Size * p.Aux * p.Steps)
	t.Logf("%d steps, %.1f per cell update", steps[0], float64(steps[0])/float64(cells))
	if steps[0] > 37*cells {
		t.Fatalf("%d steps for %d cell updates: %.1f per cell, budget 37",
			steps[0], cells, float64(steps[0])/float64(cells))
	}
}

// goSpawn runs workers as goroutines against a real loopback hub —
// process-shaped in every way that matters (own router, own engine, own
// TCP connection) but cheap enough for unit tests.
func goSpawn(t *testing.T, p workload.Params, fault func(node int64) *transport.FaultSpec) workload.SpawnFunc {
	t.Helper()
	w := gridApp(t)
	return func(join string, node int64, resume string) error {
		go func() {
			cfg := workload.WorkerConfig{
				Join: join, Node: node, Params: p, Resume: resume,
				Timeout: time.Minute, RetryBase: 5 * time.Millisecond,
			}
			if fault != nil {
				cfg.Fault = fault(node)
			}
			if _, err := workload.RunWorker(w, cfg); err != nil && err != workload.ErrNodeFailed {
				t.Errorf("worker %d (resume %q): %v", node, resume, err)
			}
		}()
		return nil
	}
}

func runDistributed(t *testing.T, p workload.Params, script *workload.FaultScript, spawn workload.SpawnFunc) *workload.Result {
	t.Helper()
	res, err := workload.RunDistributed(gridApp(t), p, script, workload.DistributedConfig{Spawn: spawn}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDistributedMatchesReference: the grid application over the TCP
// transport produces checksums bit-identical to the sequential reference
// (and therefore to the in-process engine).
func TestDistributedMatchesReference(t *testing.T) {
	p := params(3, 4, 8, 12, 4)
	res := runDistributed(t, p, nil, goSpawn(t, p, nil))
	assertReference(t, p, res)
	if res.Rollbacks != 0 || res.Resurrections != 0 {
		t.Fatalf("failure-free run saw %d rollbacks, %d resurrections", res.Rollbacks, res.Resurrections)
	}
}

// TestDistributedFailureResurrects: kill a worker after its second
// checkpoint, resurrect a fresh process from the shared store, and still
// match the reference bit-exactly; survivors must have rolled back.
func TestDistributedFailureResurrects(t *testing.T) {
	p := params(3, 4, 8, 16, 4)
	res := runDistributed(t, p, workload.OneFailure(1, 2, 20*time.Millisecond), goSpawn(t, p, nil))
	assertReference(t, p, res)
	if res.Resurrections != 1 {
		t.Fatalf("resurrections = %d, want 1", res.Resurrections)
	}
	if res.Rollbacks == 0 {
		t.Fatal("survivors never observed MSG_ROLL")
	}
}

// TestDistributedDupReorderConverges: every worker's link duplicates
// every border message and reorders each step's send burst; keyed
// idempotent delivery makes the result bit-identical anyway.
func TestDistributedDupReorderConverges(t *testing.T) {
	p := params(3, 4, 8, 12, 4)
	var mu sync.Mutex
	specs := make(map[int64]*transport.FaultSpec)
	fault := func(node int64) *transport.FaultSpec {
		mu.Lock()
		defer mu.Unlock()
		if specs[node] == nil {
			specs[node] = &transport.FaultSpec{
				Dup:           func(src, dst, tag int64, occ int) bool { return true },
				ReorderWindow: 2,
			}
		}
		return specs[node]
	}
	assertReference(t, p, runDistributed(t, p, nil, goSpawn(t, p, fault)))
	mu.Lock()
	defer mu.Unlock()
	duped := 0
	for _, s := range specs {
		duped += s.Duplicated()
	}
	if duped == 0 {
		t.Fatal("fault injector never duplicated a frame; the test proved nothing")
	}
}

// countingStore counts successful Puts per name and calls onPut after
// each one.
type countingStore struct {
	migrate.Store
	mu    sync.Mutex
	puts  map[string]int
	onPut func(name string, n int)
}

func (s *countingStore) Put(name string, data []byte) error {
	if err := s.Store.Put(name, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.puts[name]++
	n := s.puts[name]
	s.mu.Unlock()
	s.onPut(name, n)
	return nil
}

func (s *countingStore) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts[name]
}

// TestDistributedKillFiresAtNthPut: a distributed run's scripted kill
// fires inside the Nth successful Put of the victim's head, as it does in
// process. With "fail 1@2", node 1 is killed exactly once, when its second
// head checkpoint has landed in the coordinator's store, and a blip that
// drops every worker link in the middle of the run neither re-fires nor
// loses the kill. The workers join through a relay in front of the hub,
// whose CloseConns is the blip.
func TestDistributedKillFiresAtNthPut(t *testing.T) {
	w := gridApp(t)
	p := params(3, 4, 8, 24, 2)
	script, err := workload.ParseScriptString("fail 1@2")
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		hubAddr string
		killed  []int // node 1's head Puts at each kill
		links   atomic.Int32
		blipped atomic.Bool
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay := frame.NewServer(ln, 0, func(conn net.Conn) {
		mu.Lock()
		addr := hubAddr
		mu.Unlock()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		links.Add(1)
		go func() {
			_, _ = io.Copy(up, conn)
			_ = up.Close()
		}()
		_, _ = io.Copy(conn, up)
	})
	go relay.Serve()
	defer relay.Close()

	head0, head1 := w.CheckpointName(0), w.CheckpointName(1)
	st := &countingStore{Store: cluster.NewMemStore(), puts: make(map[string]int)}
	st.onPut = func(name string, n int) {
		if name == head0 && n == 4 {
			blipped.Store(true)
			relay.CloseConns()
		}
	}
	spawn := goSpawn(t, p, nil)
	res, err := workload.RunDistributed(w, p, script, workload.DistributedConfig{
		Store: st,
		Spawn: func(join string, node int64, resume string) error {
			mu.Lock()
			hubAddr = join
			mu.Unlock()
			return spawn(relay.Addr(), node, resume)
		},
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "coordinator: killing node") {
				mu.Lock()
				killed = append(killed, st.count(head1))
				mu.Unlock()
			}
		},
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		t.Fatal(err)
	}
	if res.Resurrections != 1 {
		t.Fatalf("resurrections = %d, want 1", res.Resurrections)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(killed) != 1 || killed[0] != 2 {
		t.Fatalf("kills fired at node 1 head Puts %v, want exactly one, at 2", killed)
	}
	// Three first incarnations and one resurrection join once each; the
	// blip makes every live worker join again.
	if !blipped.Load() || links.Load() <= 4 {
		t.Fatalf("blip fired %v, %d worker links: the run never lost its links", blipped.Load(), links.Load())
	}
}

// tagged reports whether tags contains tag.
func tagged(tags []int64, tag int64) bool {
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// TestDistributedDropRecoversViaRoll: drop the first transmission of one
// border message. The receiver wedges waiting for it — exactly the state
// an undetected message loss would leave a real cluster in — until the
// failure detector kills the sender; the MSG_ROLL broadcast rolls the
// receiver back, the sender's resurrected incarnation re-executes from
// its checkpoint and re-sends the dropped border, and the run converges
// to the reference result.
func TestDistributedDropRecoversViaRoll(t *testing.T) {
	w := gridApp(t)
	p := params(2, 4, 8, 12, 4)
	// Tag 6 is inside the second speculation interval (checkpoint at 4),
	// so the resurrected node re-executes step 6 and re-sends the border.
	spec := &transport.FaultSpec{
		Drop: func(src, dst, tag int64, occ int) bool {
			return src == 0 && dst == 1 && tag == 6 && occ == 1
		},
	}

	st := cluster.NewMemStore()
	hub, err := transport.Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	spawn := goSpawn(t, p, func(node int64) *transport.FaultSpec {
		if node == 0 {
			return spec
		}
		return nil
	})
	for n := int64(0); n < int64(p.Nodes); n++ {
		if err := spawn(hub.Addr(), n, ""); err != nil {
			t.Fatal(err)
		}
	}

	// Wait until the drop has happened. Node 0's step-4 checkpoint is
	// causally before its step-6 send, so the shared store already holds
	// the image the resurrection needs.
	deadline := time.Now().Add(30 * time.Second)
	for spec.Dropped() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if spec.Dropped() == 0 {
		t.Fatal("the drop never triggered")
	}
	if _, err := st.Get(w.CheckpointName(0)); err != nil {
		t.Fatalf("checkpoint missing at drop time: %v", err)
	}

	// Wait until the receiver has wedged on the lost border: grid sends
	// both borders before receiving, so once the hub buffers node 1's own
	// step-6 border for node 0, node 1 is parked in its step-6 receive of
	// the frame the injector dropped — it has nowhere else to go.
	for deadline := time.Now().Add(30 * time.Second); !tagged(hub.BufferedTags(0, 1), 6); {
		if !time.Now().Before(deadline) {
			t.Fatalf("receiver never reached the wedge point (hub buffers %v)", hub.BufferedTags(0, 1))
		}
		time.Sleep(time.Millisecond)
	}

	// Play failure detector: kill node 0, wait for the kill to tear down
	// its session, then resurrect it from the shared store. The
	// replacement worker runs without the fault injector.
	hub.Fail(0)
	for deadline := time.Now().Add(30 * time.Second); hub.HasSession(0); {
		if !time.Now().Before(deadline) {
			t.Fatal("failed node's session never closed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := goSpawn(t, p, nil)(hub.Addr(), 0, w.CheckpointName(0)); err != nil {
		t.Fatal(err)
	}

	results, err := hub.WaitResults(p.Nodes, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for n, halt := range w.Reference(p) {
		if res, ok := results[n]; !ok || res.Halt != halt {
			t.Errorf("node %d: result %+v, want halt %d", n, res, halt)
		}
	}
	if results[1].Rolls == 0 {
		t.Fatal("the wedged receiver never rolled back; the drop was not exercised")
	}
}
