package ckpt_test

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
	"repro/internal/spec"
	"repro/internal/wire"
)

// rootedRuntime is a minimal rt.Runtime whose GC roots are the blocks the
// test holds plus the pins of the checkpoint in progress (the process
// shell clears pins when the migrate returns; the test does it by hand).
type rootedRuntime struct {
	h           *heap.Heap
	mgr         *spec.Manager
	prog        *fir.Program
	roots, pins []heap.Value
}

func newRootedRuntime() *rootedRuntime {
	h := heap.New(heap.Config{})
	r := &rootedRuntime{h: h, mgr: spec.New(h), prog: &fir.Program{}}
	h.AddRoots(func(yield func(heap.Value)) {
		for _, v := range r.roots {
			yield(v)
		}
		for _, v := range r.pins {
			yield(v)
		}
	})
	return r
}

func (r *rootedRuntime) Name() string          { return "alloc-test" }
func (r *rootedRuntime) Program() *fir.Program { return r.prog }
func (r *rootedRuntime) Heap() *heap.Heap      { return r.h }
func (r *rootedRuntime) Spec() *spec.Manager   { return r.mgr }
func (r *rootedRuntime) Stdout() io.Writer     { return io.Discard }
func (r *rootedRuntime) Pin(v heap.Value)      { r.pins = append(r.pins, v) }
func (r *rootedRuntime) Arg(int64) int64       { return 0 }
func (r *rootedRuntime) NArgs() int64          { return 0 }
func (r *rootedRuntime) Rand(int64) int64      { return 0 }

// TestFullCheckpointAllocatesLittle pins the full-mode write path's
// allocation: a checkpoint encodes straight from the heap into a recycled
// buffer, so a 65 536-word heap (2 MiB of heap.Value) checkpointed into a
// MemStore allocates well under the size of its own image per checkpoint
// in steady state — copying the heap first would cost over 2 MiB.
func TestFullCheckpointAllocatesLittle(t *testing.T) {
	const words = 65536
	r := newRootedRuntime()
	block, err := r.h.Alloc(words)
	if err != nil {
		t.Fatal(err)
	}
	r.roots = append(r.roots, block)
	for i := int64(0); i < words; i++ {
		if err := r.h.Store(block, i, heap.IntVal(i*40503%1000003)); err != nil {
			t.Fatal(err)
		}
	}
	store := cluster.NewMemStore()
	c := ckpt.New(store, ckpt.Options{Mode: ckpt.ModeFull})
	req := &rt.MigrationRequest{Rt: r, Label: 1, FnIndex: 2, Args: []heap.Value{block, heap.IntVal(9)}}
	checkpoint := func() {
		t.Helper()
		if err := c.Checkpoint(req, "ck", 0); err != nil {
			t.Fatal(err)
		}
		r.pins = r.pins[:0]
	}
	// Warm up: the pooled buffer and view, the store's slot, the arena.
	for i := 0; i < 3; i++ {
		checkpoint()
	}

	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		checkpoint()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 256<<10 && !raceEnabled {
		t.Fatalf("a full checkpoint of a %d-word heap allocates %d B, want < 256 KiB", words, per)
	}

	data, err := store.Get("ck")
	if err != nil {
		t.Fatal(err)
	}
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := img.State.Heap.EntryWords(); got != words+3 {
		t.Fatalf("stored image holds %d words, want the block plus a 3-word migrate_env (%d)", got, words+3)
	}
	if st := c.Stats(); st.Checkpoints != 3+n || st.PauseNs != st.CaptureNs+st.CommitNs {
		t.Fatalf("stats %+v: want %d checkpoints and pause = capture + commit", st, 3+n)
	}
}

// TestIncrementalModesWriteLessThanFull: when a checkpoint interval
// changes one block of a large heap, the incremental modes write a small
// fraction of full mode's bytes — even while the process churns
// short-lived blocks between checkpoints, which a delta must not list.
// Code objects are not counted (Stats.CodeBytes): every mode writes the
// same one.
func TestIncrementalModesWriteLessThanFull(t *testing.T) {
	written := map[ckpt.Mode]uint64{}
	for _, mode := range []ckpt.Mode{ckpt.ModeFull, ckpt.ModeDelta, ckpt.ModeAsync} {
		r := newRootedRuntime()
		for i := 0; i < 32; i++ {
			block, err := r.h.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			r.roots = append(r.roots, block)
		}
		c := ckpt.New(cluster.NewMemStore(), ckpt.Options{Mode: mode, K: 8})
		req := &rt.MigrationRequest{Rt: r, Label: 1, FnIndex: 2}
		for i := 0; i < 8; i++ {
			if err := r.h.Store(r.roots[i], 0, heap.IntVal(int64(i))); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 500; j++ {
				if _, err := r.h.Alloc(4); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Checkpoint(req, "ck", 0); err != nil {
				t.Fatal(err)
			}
			r.pins = r.pins[:0]
		}
		c.Drain("ck")
		written[mode] = c.Stats().BytesWritten
	}
	for _, mode := range []ckpt.Mode{ckpt.ModeDelta, ckpt.ModeAsync} {
		if written[mode]*4 > written[ckpt.ModeFull] {
			t.Errorf("%s mode wrote %d B, not under a quarter of full mode's %d B", mode, written[mode], written[ckpt.ModeFull])
		}
	}
}
