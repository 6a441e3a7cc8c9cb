package heap

import (
	"math/rand"
	"testing"
)

// deltaHarness drives a tracked heap through randomized operations while
// holding a mutating root set, so GC, speculation and copy-on-write all
// participate.
type deltaHarness struct {
	t     *testing.T
	h     *Heap
	rng   *rand.Rand
	roots []Value
}

func newDeltaHarness(t *testing.T, seed int64) *deltaHarness {
	dh := &deltaHarness{
		t:   t,
		h:   New(Config{InitialWords: 256, TrackDirty: true}),
		rng: rand.New(rand.NewSource(seed)),
	}
	dh.h.AddRoots(func(yield func(Value)) {
		for _, v := range dh.roots {
			yield(v)
		}
	})
	return dh
}

// step applies one random operation.
func (dh *deltaHarness) step() {
	h, rng := dh.h, dh.rng
	switch op := rng.Intn(10); {
	case op < 3: // alloc a small block, usually rooted
		ptr, err := h.Alloc(int64(1 + rng.Intn(6)))
		if err != nil {
			dh.t.Fatalf("alloc: %v", err)
		}
		dh.roots = append(dh.roots, ptr)
	case op < 6: // store into a random rooted block
		if len(dh.roots) == 0 {
			return
		}
		ptr := dh.roots[rng.Intn(len(dh.roots))]
		var v Value
		if rng.Intn(4) == 0 && len(dh.roots) > 1 {
			v = dh.roots[rng.Intn(len(dh.roots))]
			if _, err := h.BlockSize(v); err != nil {
				// A rollback or collection freed the pointee; a live program
				// could not still hold this pointer. Store a scalar instead.
				v = IntVal(rng.Int63n(1000))
			}
		} else {
			v = IntVal(rng.Int63n(1000))
		}
		// The offset may be out of bounds or the entry freed by a rollback;
		// both are legitimate no-ops for this harness.
		_ = h.Store(ptr, int64(rng.Intn(6)), v)
	case op < 7: // drop a root (makes garbage for the next collection)
		if len(dh.roots) > 2 {
			i := rng.Intn(len(dh.roots))
			dh.roots = append(dh.roots[:i], dh.roots[i+1:]...)
		}
	case op < 8: // speculation-level traffic
		switch {
		case h.LevelCount() == 0 || rng.Intn(3) == 0:
			h.EnterLevel()
		case rng.Intn(2) == 0:
			if err := h.CommitLevel(1 + rng.Intn(h.LevelCount())); err != nil {
				dh.t.Fatalf("commit: %v", err)
			}
		default:
			if err := h.RollbackLevel(1 + rng.Intn(h.LevelCount())); err != nil {
				dh.t.Fatalf("rollback: %v", err)
			}
		}
	case op < 9:
		h.CollectMinor()
	default:
		h.CollectMajor()
	}
}

// TestDeltaSnapshotRebuild is the central incremental-checkpoint property:
// for random operation sequences, a base snapshot plus the chain of deltas
// captured along the way rebuilds to exactly the full snapshot taken at
// the end — including under GC, copy-on-write, commits and rollbacks.
func TestDeltaSnapshotRebuild(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		dh := newDeltaHarness(t, seed)
		base := dh.h.Snapshot()
		dh.h.MarkSnapshotBase()
		var deltas []*DeltaSnapshot
		for round := 0; round < 6; round++ {
			for i := 0; i < 40; i++ {
				dh.step()
			}
			d := dh.h.SnapshotDelta()
			if d == nil {
				t.Fatalf("seed %d round %d: tracked heap returned nil delta", seed, round)
			}
			deltas = append(deltas, d)

			full := dh.h.Snapshot()
			rebuilt, err := RebuildSnapshot(base, deltas...)
			if err != nil {
				t.Fatalf("seed %d round %d: rebuild: %v", seed, round, err)
			}
			if !rebuilt.Equal(full) {
				t.Fatalf("seed %d round %d: rebuilt snapshot diverges from full snapshot", seed, round)
			}
			// The rebuilt snapshot must also restore into a valid heap.
			h2, err := Restore(rebuilt, Config{})
			if err != nil {
				t.Fatalf("seed %d round %d: restore of rebuilt snapshot: %v", seed, round, err)
			}
			if err := h2.CheckInvariants(); err != nil {
				t.Fatalf("seed %d round %d: restored heap invariants: %v", seed, round, err)
			}
		}
		if err := dh.h.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: final invariants: %v", seed, err)
		}
	}
}

// TestDeltaFreedOnlyBaseEntries: a delta frees only indices that held a
// live entry in its base and hold none now. A block allocated and
// collected within one interval is no change at all, so a process that
// churns short-lived blocks between checkpoints writes deltas no larger
// than its live change set.
func TestDeltaFreedOnlyBaseEntries(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		dh := newDeltaHarness(t, seed)
		prev := dh.h.Snapshot()
		dh.h.MarkSnapshotBase()
		for round := 0; round < 6; round++ {
			for i := 0; i < 40; i++ {
				dh.step()
			}
			d := dh.h.SnapshotDelta()
			live := make(map[int64]bool, len(prev.Entries))
			for _, e := range prev.Entries {
				live[e.Idx] = true
			}
			for _, idx := range d.Freed {
				if !live[idx] {
					t.Fatalf("seed %d round %d: delta frees %d, not live in its base", seed, round, idx)
				}
			}
			prev = dh.h.Snapshot()
		}
	}

	h := New(Config{InitialWords: 256, TrackDirty: true})
	keep, err := h.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	h.AddRoots(func(yield func(Value)) { yield(keep) })
	h.MarkSnapshotBase()
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(4); err != nil {
			t.Fatal(err)
		}
	}
	h.CollectMajor()
	if d := h.SnapshotDelta(); len(d.Freed) != 0 || len(d.Changed) != 0 {
		t.Fatalf("100 blocks born and collected in one interval: delta frees %d and changes %d entries, want none",
			len(d.Freed), len(d.Changed))
	}
}

// TestDeltaSnapshotNeedsBase pins the fall-back contract: without
// tracking, or without a baseline, SnapshotDelta returns nil.
func TestDeltaSnapshotNeedsBase(t *testing.T) {
	h := New(Config{})
	if h.SnapshotDelta() != nil {
		t.Fatal("untracked heap produced a delta")
	}
	h.EnableDeltaTracking()
	if h.SnapshotDelta() != nil {
		t.Fatal("tracked heap without a baseline produced a delta")
	}
	if h.DeltaReady() {
		t.Fatal("DeltaReady before any baseline")
	}
	h.MarkSnapshotBase()
	if !h.DeltaReady() {
		t.Fatal("DeltaReady false after MarkSnapshotBase")
	}
	if d := h.SnapshotDelta(); d == nil || len(d.Changed) != 0 || len(d.Freed) != 0 {
		t.Fatalf("empty delta expected, got %+v", d)
	}
}

// TestDeltaTrackingFromRestore pins that a heap restored from a snapshot
// with TrackDirty set tracks but has no baseline: the checkpoint pipeline
// must write a full image first after resurrect or migration.
func TestDeltaTrackingFromRestore(t *testing.T) {
	h := New(Config{TrackDirty: true})
	ptr, err := h.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	h.AddRoots(func(yield func(Value)) { yield(ptr) })
	if err := h.Store(ptr, 0, IntVal(7)); err != nil {
		t.Fatal(err)
	}
	h2, err := Restore(h.Snapshot(), Config{TrackDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	if !h2.DeltaTracking() {
		t.Fatal("restored heap does not track")
	}
	if h2.DeltaReady() {
		t.Fatal("restored heap claims a baseline it cannot have")
	}
}
