package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/workload"
	_ "repro/internal/workload/apps" // register the shipped apps
)

// startServer runs a daemon on loopback and tears it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, cfg)
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s, &Client{Addr: s.Addr()}
}

// smallParams is each app's shrunk problem shape (mirrors the apps
// package's own fast-matrix sizes).
func smallParams(app string) workload.Params {
	switch app {
	case "grid":
		return workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 12, CheckpointInterval: 4}
	case "allreduce":
		return workload.Params{Nodes: 3, Size: 4, Steps: 8, CheckpointInterval: 2}
	case "taskfarm":
		return workload.Params{Nodes: 3, Size: 4, Steps: 6, CheckpointInterval: 2}
	case "pipeline":
		return workload.Params{Nodes: 4, Size: 3, Aux: 4, Steps: 8, CheckpointInterval: 2}
	}
	return workload.Params{}
}

var allApps = []string{"grid", "allreduce", "taskfarm", "pipeline"}

func TestSubmitRunsAndVerifies(t *testing.T) {
	s, c := startServer(t, Config{PoolWorkers: 2, MaxRuns: 2, QueueDepth: 4})
	reply, err := c.Submit(SubmitRequest{Tenant: "alice", App: "grid", Params: smallParams("grid")})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Verified || reply.ID == 0 {
		t.Fatalf("reply %+v: want verified with a run ID", reply)
	}
	if reply.Checkpoints == 0 || reply.CkptBytes == 0 {
		t.Fatalf("reply %+v: grid checkpoints every 4 steps, counters must be non-zero", reply)
	}
	m := s.Snapshot()
	if m.Accepted != 1 || m.Completed != 1 || m.Failed != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if tm := m.Tenants["alice"]; tm.Completed != 1 || tm.CkptBytes == 0 {
		t.Fatalf("tenant metrics %+v", tm)
	}
}

func TestSubmitInvalidIsExplicitlyRejected(t *testing.T) {
	_, c := startServer(t, Config{PoolWorkers: 1, MaxRuns: 1, QueueDepth: 1})
	if _, err := c.Submit(SubmitRequest{App: "no-such-app"}); !errors.Is(err, ErrRejected) {
		t.Fatalf("unknown app: %v, want ErrRejected", err)
	}
	if _, err := c.Submit(SubmitRequest{App: "grid", Script: "explode 1@2"}); !errors.Is(err, ErrRejected) {
		t.Fatalf("bad script: %v, want ErrRejected", err)
	}
	p := smallParams("grid")
	p.Engine = "quantum-annealer"
	if _, err := c.Submit(SubmitRequest{App: "grid", Params: p}); !errors.Is(err, ErrRejected) {
		t.Fatalf("bad engine: %v, want ErrRejected", err)
	}
}

// TestConcurrentTenants is the headline serving guarantee: 64 concurrent
// submissions — every app × both engines × a fault script on some —
// multiplexed over ONE shared worker pool and ONE shared checkpoint
// store, every single one verified bit-exact against its sequential
// reference.
func TestConcurrentTenants(t *testing.T) {
	store := cluster.NewMemStore()
	s, c := startServer(t, Config{
		PoolWorkers: 4,
		MaxRuns:     8,
		QueueDepth:  64,
		Store:       store,
	})
	c.SubmitTimeout = 3 * time.Minute

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		app := allApps[i%len(allApps)]
		req := SubmitRequest{
			Tenant: fmt.Sprintf("t%d", i%8),
			App:    app,
			Params: smallParams(app),
		}
		if i%2 == 1 {
			req.Params.Engine = "jit"
		}
		if i%4 == 0 {
			// Every grid submission also rides through a failure.
			req.Script = "fail 1@1 delay=5ms"
		}
		wg.Add(1)
		go func(req SubmitRequest) {
			defer wg.Done()
			reply, err := c.Submit(req)
			if err != nil {
				errs <- fmt.Errorf("%s/%s: %w", req.Tenant, req.App, err)
				return
			}
			if !reply.Verified {
				errs <- fmt.Errorf("%s/%s: unverified reply %+v", req.Tenant, req.App, reply)
			}
		}(req)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	m := s.Snapshot()
	if m.Accepted != n || m.Completed != n || m.Rejected != 0 || m.Failed != 0 {
		t.Fatalf("metrics %+v, want %d accepted+completed", m, n)
	}
	if len(m.Tenants) != 8 {
		t.Fatalf("tenant count %d, want 8", len(m.Tenants))
	}
	for name, tm := range m.Tenants {
		if tm.Completed != n/8 {
			t.Errorf("tenant %s completed %d, want %d", name, tm.Completed, n/8)
		}
	}
	// Every finished run's namespace was swept from the shared store.
	if names, err := store.List(); err != nil || len(names) != 0 {
		t.Fatalf("shared store holds %v after all runs finished (err %v)", names, err)
	}
	if m.GCObjects == 0 {
		t.Fatal("gc swept nothing although runs checkpointed")
	}
	if m.GCFailures != 0 {
		t.Fatalf("gc failures %d", m.GCFailures)
	}
}

// TestOverloadThrottlesExplicitly: with one run slot and a one-deep
// queue, a burst must get explicit, immediate throttle rejections —
// never a hang, never a silent drop — while everything accepted still
// completes verified.
func TestOverloadThrottlesExplicitly(t *testing.T) {
	s, c := startServer(t, Config{PoolWorkers: 1, MaxRuns: 1, QueueDepth: 1})
	c.SubmitTimeout = 2 * time.Minute

	// Occupy the run slot and the queue slot with runs that cannot finish
	// quickly: their fault scripts park them in a 400ms resurrection delay.
	slow := SubmitRequest{Tenant: "slow", App: "grid", Params: smallParams("grid"), Script: "fail 1@1 delay=400ms"}
	type outcome struct {
		reply *RunReply
		err   error
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			reply, err := c.Submit(slow)
			results <- outcome{reply, err}
		}()
	}
	// Wait until one slow run is actually running and the other is queued:
	// only then is the burst guaranteed to overflow.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := s.Snapshot()
		if m.Running >= 1 && m.Running+m.QueueDepth >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow runs never occupied the daemon: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	throttled := 0
	for i := 0; i < 4; i++ {
		start := time.Now()
		_, err := c.Submit(SubmitRequest{Tenant: "burst", App: "allreduce", Params: smallParams("allreduce")})
		if errors.Is(err, ErrThrottled) {
			throttled++
			if wait := time.Since(start); wait > 5*time.Second {
				t.Fatalf("throttle reply took %v — rejects must be immediate", wait)
			}
		} else if err != nil {
			t.Fatalf("burst submit: unexpected error %v", err)
		}
	}
	if throttled == 0 {
		t.Fatal("no burst submission was throttled although the daemon was saturated")
	}

	// The occupying runs still complete, verified.
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("slow run: %v", o.err)
		}
		if !o.reply.Verified || o.reply.Resurrections != 1 {
			t.Fatalf("slow run reply %+v, want verified with 1 resurrection", o.reply)
		}
	}
	m := s.Snapshot()
	if m.Rejected != uint64(throttled) {
		t.Fatalf("metrics rejected %d, throttled %d", m.Rejected, throttled)
	}
	if tm := m.Tenants["burst"]; tm.Rejected != uint64(throttled) {
		t.Fatalf("burst tenant metrics %+v", tm)
	}
}

// TestProgramCacheSharesCompilations: tenants submitting the same
// problem shape share one compiled program. The daemon keeps no program
// table of its own — workload.Compile hands every run of a shape the same
// *fir.Program — so the engine's artifact cache, keyed on that pointer,
// compiles once per distinct shape however many runs arrive.
// cacheShapeRuns counts invocations of TestProgramCacheSharesCompilations:
// the compile cache outlives a test, so a repeated run (-count 2) needs
// shapes the earlier ones did not compile.
var cacheShapeRuns int

func TestProgramCacheSharesCompilations(t *testing.T) {
	_, c := startServer(t, Config{PoolWorkers: 2, MaxRuns: 2, QueueDepth: 8})
	// Shapes no other test in this package submits, and no earlier run of
	// this one: 10+6n steps, then twice that.
	p := smallParams("allreduce")
	p.Steps += 2 + 6*cacheShapeRuns
	cacheShapeRuns++
	before := engine.CacheStats()
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(SubmitRequest{App: "allreduce", Params: p}); err != nil {
			t.Fatal(err)
		}
	}
	p.Steps *= 2
	if _, err := c.Submit(SubmitRequest{App: "allreduce", Params: p}); err != nil {
		t.Fatal(err)
	}
	after := engine.CacheStats()
	key := engine.DefaultName + "_misses"
	if got := after[key] - before[key]; got != 2 {
		t.Fatalf("four runs of two shapes compiled %d times, want 2 (one per distinct shape)", got)
	}
}

func TestMetricsRPC(t *testing.T) {
	_, c := startServer(t, Config{PoolWorkers: 2, MaxRuns: 3, QueueDepth: 5})
	if _, err := c.Submit(SubmitRequest{Tenant: "m", App: "taskfarm", Params: smallParams("taskfarm")}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 1 || m.MaxRuns != 3 || m.QueueCap != 5 || m.PoolWorkers != 2 {
		t.Fatalf("metrics over the wire %+v", m)
	}
	if tm, ok := m.Tenants["m"]; !ok || tm.Completed != 1 {
		t.Fatalf("tenant metrics over the wire %+v", m.Tenants)
	}
}

func TestPrefixStoreIsolatesAndSweeps(t *testing.T) {
	shared := cluster.NewMemStore()
	a := prefixStore{prefix: runPrefix(1), inner: shared}
	b := prefixStore{prefix: runPrefix(2), inner: shared}
	if err := a.Put("ck-0", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ck-0", []byte("B")); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Get("ck-0"); err != nil || string(got) != "A" {
		t.Fatalf("a sees %q, %v", got, err)
	}
	if got, err := b.Get("ck-0"); err != nil || string(got) != "B" {
		t.Fatalf("b sees %q, %v", got, err)
	}
	if names, _ := a.List(); len(names) != 1 || names[0] != "ck-0" {
		t.Fatalf("a lists %v", names)
	}
	deleted, failed, err := a.sweep()
	if err != nil || deleted != 1 || failed != 0 {
		t.Fatalf("sweep: %d/%d, %v", deleted, failed, err)
	}
	// b's namespace is untouched.
	if got, err := b.Get("ck-0"); err != nil || string(got) != "B" {
		t.Fatalf("sweep of a touched b: %q, %v", got, err)
	}
	if names, _ := shared.List(); len(names) != 1 {
		t.Fatalf("shared store %v", names)
	}
}
