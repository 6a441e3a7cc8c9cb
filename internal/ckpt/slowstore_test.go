package ckpt

import (
	"io"
	"testing"
	"time"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/rt"
	"repro/internal/spec"
)

// ckptRuntime is a minimal rt.Runtime over a real heap — enough for
// migrate.Pack/PackDelta to capture genuine images in committer tests.
type ckptRuntime struct {
	h    *heap.Heap
	mgr  *spec.Manager
	prog *fir.Program
}

func newCkptRuntime() *ckptRuntime {
	h := heap.New(heap.Config{})
	return &ckptRuntime{h: h, mgr: spec.New(h), prog: &fir.Program{}}
}

func (r *ckptRuntime) Name() string          { return "ckpt-test" }
func (r *ckptRuntime) Program() *fir.Program { return r.prog }
func (r *ckptRuntime) Heap() *heap.Heap      { return r.h }
func (r *ckptRuntime) Spec() *spec.Manager   { return r.mgr }
func (r *ckptRuntime) Stdout() io.Writer     { return io.Discard }
func (r *ckptRuntime) Pin(heap.Value)        {}
func (r *ckptRuntime) Arg(int64) int64       { return 0 }
func (r *ckptRuntime) NArgs() int64          { return 0 }
func (r *ckptRuntime) Rand(n int64) int64    { return 0 }

// stallStore delays every checkpoint Put until the test releases it:
// each arriving Put announces its name on arrived, then blocks until a
// receive from release (or until release is closed). Code objects pass
// straight through: the tests here stall the chain, and the committer
// writes its one code object before the first image.
type stallStore struct {
	*fakeStore
	arrived chan string
	release chan struct{}
}

func newStallStore() *stallStore {
	return &stallStore{
		fakeStore: newFakeStore(),
		arrived:   make(chan string, 16),
		release:   make(chan struct{}),
	}
}

func (s *stallStore) Put(name string, data []byte) error {
	if migrate.IsCodeName(name) {
		return s.fakeStore.Put(name, data)
	}
	s.arrived <- name
	<-s.release
	return s.fakeStore.Put(name, data)
}

func (s *stallStore) has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[name]
	return ok
}

func waitArrival(t *testing.T, s *stallStore, want string) {
	t.Helper()
	select {
	case got := <-s.arrived:
		if got != want {
			t.Fatalf("store saw Put(%q), want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for Put(%q)", want)
	}
}

// TestAsyncDoubleBufferBoundUnderSlowStore: with a store Put stalled
// indefinitely, the async pipeline admits exactly one more capture (the
// queue slot) and blocks the third — the double-buffer bound holds under
// backpressure instead of buffering unboundedly — then releases it as
// soon as the stalled commit drains.
func TestAsyncDoubleBufferBoundUnderSlowStore(t *testing.T) {
	st := newStallStore()
	c := New(st, Options{Mode: ModeAsync})
	req := &rt.MigrationRequest{Rt: newCkptRuntime()}

	// #1 returns immediately; its commit stalls inside the member Put.
	if err := c.Checkpoint(req, "ck", 1); err != nil {
		t.Fatal(err)
	}
	waitArrival(t, st, "ck@0") // the worker is now mid-put

	// #2 fills the single queue slot without blocking the node.
	done2 := make(chan error, 1)
	go func() { done2 <- c.Checkpoint(req, "ck", 1) }()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second checkpoint blocked: the queue slot was not available")
	}

	// #3 must block: one commit in flight + one queued is the bound.
	done3 := make(chan error, 1)
	go func() { done3 <- c.Checkpoint(req, "ck", 1) }()
	select {
	case <-done3:
		t.Fatal("third checkpoint was admitted while the pipeline was full: double-buffer bound broken")
	case <-time.After(100 * time.Millisecond):
	}

	// Draining the stalled commit (member put, then head-ref put) frees
	// the slot and unblocks the third capture.
	st.release <- struct{}{}
	waitArrival(t, st, "ck")
	st.release <- struct{}{}
	select {
	case err := <-done3:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third checkpoint never unblocked after the stalled commit drained")
	}

	close(st.release) // let the remaining commits run at full speed
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Checkpoints != 3 || !st.has("ck@2") {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: stats %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if !st.has("ck") {
		t.Fatal("head ref never published")
	}
}

// TestAbortDuringStalledPutWithholdsRef: a node failure while its
// commit is stalled inside the store write must withhold the head ref —
// the member write itself may land, but the durability watermark never
// moves to a checkpoint taken by a failed incarnation — and the commit
// queued behind it is discarded.
func TestAbortDuringStalledPutWithholdsRef(t *testing.T) {
	st := newStallStore()
	c := New(st, Options{Mode: ModeAsync})
	req := &rt.MigrationRequest{Rt: newCkptRuntime()}

	if err := c.Checkpoint(req, "ck", 1); err != nil {
		t.Fatal(err)
	}
	waitArrival(t, st, "ck@0") // commit 1 stalled mid-put
	if err := c.Checkpoint(req, "ck", 1); err != nil {
		t.Fatal(err) // commit 2 queued behind it
	}

	// A durability wait registered now must be dropped by the abort: its
	// checkpoint never publishes.
	ran := 0
	c.AfterOwnerDurable(1, func() { ran++ })

	c.AbortOwner(1)   // the node dies while the put is stalled
	close(st.release) // the in-flight write itself completes

	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Aborted != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queued commit was never discarded: stats %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if !st.has("ck@0") {
		t.Fatal("stalled member write should have completed")
	}
	if st.has("ck") {
		t.Fatal("head ref published for a failed owner: watermark moved past the failure")
	}
	if st.has("ck@1") {
		t.Fatal("commit queued behind the failure was written")
	}
	if ran != 0 {
		t.Fatal("durability callback fired although the owner failed mid-commit")
	}
}
