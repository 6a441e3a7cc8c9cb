package heap

import "testing"

// TestMinorGCKeepsCommittedClones pins a write-barrier hole the
// incremental-checkpoint property harness exposed when a copy-on-write
// clone moved a block to the arena tail and turned an old entry young in
// place: an old block that referenced it from before the clone carried an
// old→young edge no barrier recorded. A copy-on-write save now leaves the
// block where it is, old if it was old, so the edge stays old→old; once the
// speculation level commits (ending the owned-entry pinning), a minor
// collection must still keep the written block alive.
func TestMinorGCKeepsCommittedClones(t *testing.T) {
	h := New(Config{})
	r, err := h.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	// R references A while both are young: the generational barrier only
	// records stores into old blocks, so nothing is remembered.
	if err := h.Store(r, 0, a); err != nil {
		t.Fatal(err)
	}
	// Root only R; A stays reachable solely through R's word.
	h.AddRoots(func(yield func(Value)) { yield(r) })
	h.CollectMajor() // promotes both to the old generation

	// Modify A inside a level, then commit.
	h.EnterLevel()
	if err := h.Store(a, 0, IntVal(42)); err != nil {
		t.Fatal(err)
	}
	if err := h.CommitLevel(1); err != nil {
		t.Fatal(err)
	}

	// The commit ended speculation ownership; only R's word, stored before
	// the level, keeps A alive now.
	h.CollectMinor()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after minor collection: %v", err)
	}
	got, err := h.Load(a, 0)
	if err != nil {
		t.Fatalf("committed clone was collected: %v", err)
	}
	if got.I != 42 {
		t.Fatalf("committed clone holds %s, want 42", got)
	}
}

// shadowedReferent builds outer → inner with inner young, then enters a
// level and overwrites outer's only reference to inner: the level's
// shadow of outer is all that reaches inner. outerOld promotes outer to
// the old generation before inner is allocated.
func shadowedReferent(t *testing.T, outerOld bool) (h *Heap, outer, inner Value) {
	h = New(Config{})
	roots := &rootSet{}
	roots.attach(h)
	outer = mustAlloc(t, h, 2)
	roots.vals = []Value{outer}
	if outerOld {
		h.CollectMajor()
	}
	inner = mustAlloc(t, h, 1)
	mustStore(t, h, inner, 0, IntVal(42))
	mustStore(t, h, outer, 1, inner)
	h.EnterLevel()
	mustStore(t, h, outer, 1, IntVal(0))
	return h, outer, inner
}

// checkRestoredReferent rolls level 1 back and follows outer's restored
// word to inner.
func checkRestoredReferent(t *testing.T, h *Heap, outer Value) {
	t.Helper()
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	ref := mustLoad(t, h, outer, 1)
	if ref.Kind != KPtr {
		t.Fatalf("outer[1] = %s, want pointer", ref)
	}
	if got := mustLoad(t, h, ref, 0); !got.Equal(IntVal(42)) {
		t.Fatalf("restored referent = %s, want 42", got)
	}
	checkInv(t, h)
}

// TestShadowContentsKeepReferentsAliveMinor is the minor-collection twin of
// TestShadowContentsKeepReferentsAlive: a young block reached only through
// a shadow's saved words survives a minor collection inside the level,
// whether the shadowed block is young or old.
func TestShadowContentsKeepReferentsAliveMinor(t *testing.T) {
	for _, outerOld := range []bool{false, true} {
		h, outer, _ := shadowedReferent(t, outerOld)
		h.CollectMinor()
		checkInv(t, h)
		checkRestoredReferent(t, h, outer)
	}
}

// TestMinorGCAfterRollbackKeepsRestoredReferents: after a rollback copies
// an old block's saved words back, those words may hold the only reference
// to a young block, and a minor collection must keep it.
func TestMinorGCAfterRollbackKeepsRestoredReferents(t *testing.T) {
	h, outer, inner := shadowedReferent(t, true)
	checkRestoredReferent(t, h, outer)
	h.CollectMinor()
	checkInv(t, h)
	if got := mustLoad(t, h, inner, 0); !got.Equal(IntVal(42)) {
		t.Fatalf("referent after minor collection = %s, want 42", got)
	}
}

// TestCheckpointIntervalWritesInPlace guards the mechanism behind a
// checkpoint interval (enter a level, write, commit, collect): the written
// block keeps its place, so after the first interval no collection moves a
// word and the arena never grows, and a steady interval allocates next to
// nothing — the saved words come back from the pool.
func TestCheckpointIntervalWritesInPlace(t *testing.T) {
	const words = 65536
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)
	p := mustAlloc(t, h, words)
	roots.vals = []Value{p}
	n := int64(0)
	interval := func() {
		h.EnterLevel()
		for off := int64(0); off < words; off += 61 {
			n++
			if err := h.Store(p, off, IntVal(n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.CommitLevel(1); err != nil {
			t.Fatal(err)
		}
		h.CollectMajor()
	}
	interval()
	first := h.Stats()
	for i := 1; i < 30; i++ {
		interval()
	}
	if st := h.Stats(); st.WordsMoved != first.WordsMoved || st.Grows != first.Grows {
		t.Fatalf("after the first interval: words moved %d -> %d, arena grows %d -> %d",
			first.WordsMoved, st.WordsMoved, first.Grows, st.Grows)
	}
	if got := mustLoad(t, h, p, 61); !got.Equal(IntVal(n - (words-1)/61 + 1)) {
		t.Fatalf("p[61] = %s after %d stores", got, n)
	}
	if allocs := testing.AllocsPerRun(10, interval); allocs > 2 {
		t.Fatalf("a steady interval allocates %.0f times, want <= 2", allocs)
	}
	checkInv(t, h)
}
