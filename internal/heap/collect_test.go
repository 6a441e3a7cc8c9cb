package heap

import (
	"errors"
	"testing"
	"testing/quick"
)

// rootSet is a mutable root list registered with a heap under test.
type rootSet struct{ vals []Value }

func (r *rootSet) attach(h *Heap) {
	h.AddRoots(func(yield func(Value)) {
		for _, v := range r.vals {
			yield(v)
		}
	})
}

func TestMajorCollectFreesUnreachable(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)

	keep := mustAlloc(t, h, 4)
	mustStore(t, h, keep, 0, IntVal(11))
	roots.vals = append(roots.vals, keep)
	for i := 0; i < 100; i++ {
		mustAlloc(t, h, 8) // garbage
	}
	used := h.UsedWords()
	h.CollectMajor()
	if h.UsedWords() >= used {
		t.Fatalf("used words %d did not shrink from %d", h.UsedWords(), used)
	}
	if h.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", h.LiveBlocks())
	}
	if got := mustLoad(t, h, keep, 0); !got.Equal(IntVal(11)) {
		t.Fatalf("survivor word = %s, want 11", got)
	}
	checkInv(t, h)
}

func TestMajorCollectFollowsPointerChains(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)

	// Build a linked list of 50 nodes rooted at the head.
	head := Null()
	for i := 0; i < 50; i++ {
		n := mustAlloc(t, h, 2)
		mustStore(t, h, n, 0, IntVal(int64(i)))
		if !head.IsNull() {
			mustStore(t, h, n, 1, head)
		}
		head = n
		roots.vals = []Value{head}
	}
	for i := 0; i < 30; i++ {
		mustAlloc(t, h, 16) // garbage
	}
	h.CollectMajor()
	if h.LiveBlocks() != 50 {
		t.Fatalf("LiveBlocks = %d, want 50", h.LiveBlocks())
	}
	// Walk the list verifying contents survived compaction.
	p, want := head, int64(49)
	for !p.IsNull() {
		if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(want)) {
			t.Fatalf("node value = %s, want %d", got, want)
		}
		next := mustLoad(t, h, p, 1)
		if next.Kind == KInt { // tail node's next slot holds the 0 fill
			break
		}
		p, want = next, want-1
	}
	checkInv(t, h)
}

func TestMinorCollectPromotesAndFrees(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)

	keep := mustAlloc(t, h, 4)
	roots.vals = []Value{keep}
	for i := 0; i < 20; i++ {
		mustAlloc(t, h, 4)
	}
	h.CollectMinor()
	if h.LiveBlocks() != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", h.LiveBlocks())
	}
	checkInv(t, h)

	// keep is now old generation; storing a pointer to a fresh young block
	// must put keep in the remembered set so the young block survives the
	// next minor collection even though no root references it directly.
	young := mustAlloc(t, h, 2)
	mustStore(t, h, young, 0, IntVal(77))
	mustStore(t, h, keep, 0, young)
	h.CollectMinor()
	if h.LiveBlocks() != 2 {
		t.Fatalf("LiveBlocks = %d, want 2 (write barrier lost the young block)", h.LiveBlocks())
	}
	got := mustLoad(t, h, keep, 0)
	if got.Kind != KPtr {
		t.Fatalf("keep[0] = %s, want pointer", got)
	}
	if v := mustLoad(t, h, got, 0); !v.Equal(IntVal(77)) {
		t.Fatalf("young survivor word = %s, want 77", v)
	}
	checkInv(t, h)
}

func TestCollectPreservesShadows(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)

	p := mustAlloc(t, h, 4)
	mustStore(t, h, p, 0, IntVal(5))
	roots.vals = []Value{p}
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(6))

	h.CollectMajor()
	checkInv(t, h)
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(6)) {
		t.Fatalf("post-GC load = %s, want 6", got)
	}
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(5)) {
		t.Fatalf("post-rollback load = %s, want 5 (shadow lost in GC)", got)
	}
	checkInv(t, h)
}

func TestShadowContentsKeepReferentsAlive(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)

	inner := mustAlloc(t, h, 1)
	mustStore(t, h, inner, 0, IntVal(42))
	outer := mustAlloc(t, h, 1)
	mustStore(t, h, outer, 0, inner)
	roots.vals = []Value{outer}

	h.EnterLevel()
	// Overwrite the only reference to inner inside the speculation. The
	// shadow of outer still references inner; rollback must find it intact.
	mustStore(t, h, outer, 0, IntVal(0))
	h.CollectMajor()
	checkInv(t, h)
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	ref := mustLoad(t, h, outer, 0)
	if ref.Kind != KPtr {
		t.Fatalf("outer[0] = %s, want pointer", ref)
	}
	if got := mustLoad(t, h, ref, 0); !got.Equal(IntVal(42)) {
		t.Fatalf("restored referent = %s, want 42", got)
	}
	checkInv(t, h)
}

func TestAllocationTriggersCollector(t *testing.T) {
	h := New(Config{InitialWords: 256, MaxWords: 256})
	roots := &rootSet{}
	roots.attach(h)
	calls := 0
	h.SetCollector(collectorFunc(func(h *Heap, need int) error {
		calls++
		h.CollectMajor()
		return nil
	}))
	// Allocate far more garbage than the arena holds; the collector must
	// recycle it.
	for i := 0; i < 100; i++ {
		mustAlloc(t, h, 16)
	}
	if calls == 0 {
		t.Fatal("collector was never invoked")
	}
	checkInv(t, h)
}

type collectorFunc func(h *Heap, need int) error

func (f collectorFunc) Collect(h *Heap, need int) error { return f(h, need) }

func TestOutOfMemory(t *testing.T) {
	// A cap below the default arena is kept: the arena starts at the cap.
	for _, cfg := range []Config{{InitialWords: 64, MaxWords: 64}, {MaxWords: 64}} {
		h := New(cfg)
		if _, err := h.Alloc(65); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("%+v: Alloc beyond cap: err = %v, want ErrOutOfMemory", cfg, err)
		}
	}
	// A growth that would overshoot the cap is clamped to it, and the
	// arena fills to the last word before an allocation fails.
	const block, maxWords = 65536, 65536 + 8
	h := New(Config{MaxWords: maxWords})
	mustAlloc(t, h, block)
	mustAlloc(t, h, maxWords-block)
	if got := h.ArenaWords(); got != maxWords {
		t.Fatalf("full arena holds %d words, want the cap %d", got, maxWords)
	}
	if _, err := h.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc past a full capped arena: err = %v, want ErrOutOfMemory", err)
	}
	checkInv(t, h)
}

// TestBlockAllocLeavesHeadroom: an arena grown for a block-sized request
// keeps room beyond it, so the small allocations that follow neither
// collect nor grow it again.
func TestBlockAllocLeavesHeadroom(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)
	collections := 0
	h.SetCollector(collectorFunc(func(h *Heap, need int) error {
		collections++
		h.CollectMinor()
		if float64(h.UsedWords()+need) > Headroom*float64(h.ArenaWords()) {
			h.CollectMajor()
		}
		return nil
	}))
	roots.vals = []Value{mustAlloc(t, h, 65536)}
	grown, first := collections, h.Stats()
	for i := 0; i < 30; i++ {
		roots.vals = append(roots.vals, mustAlloc(t, h, 3))
	}
	st := h.Stats()
	if st.Grows != 1 || collections != grown || st.WordsMoved != first.WordsMoved {
		t.Fatalf("after the block: %d grows (want 1), collections %d -> %d, words moved %d -> %d",
			st.Grows, grown, collections, first.WordsMoved, st.WordsMoved)
	}
	checkInv(t, h)
}

// TestRestoreLeavesHeadroom: a restored image larger than the default
// arena gets the headroom growth would give it, so the first allocation
// after the restore does not grow it.
func TestRestoreLeavesHeadroom(t *testing.T) {
	h := New(Config{})
	mustAlloc(t, h, 65536)
	h2, err := Restore(h.Snapshot(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, h2, 3)
	if g := h2.Stats().Grows; g != 0 {
		t.Fatalf("restored heap grew %d times on its first small allocation", g)
	}
	checkInv(t, h2)
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 4)
	mustStore(t, h, p, 0, IntVal(1))
	mustStore(t, h, p, 1, FloatVal(2.5))
	q := mustAlloc(t, h, 2)
	mustStore(t, h, q, 0, p)
	mustStore(t, h, p, 2, FunVal(3))

	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(100))
	r := mustAlloc(t, h, 1)
	mustStore(t, h, r, 0, IntVal(7))

	snap := h.Snapshot()
	h2, err := Restore(snap, Config{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := h2.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	snap2 := h2.Snapshot()
	if !snap.Equal(snap2) {
		t.Fatal("snapshot -> restore -> snapshot is not a fixed point")
	}
	// The restored heap must honour the open level: rollback restores the
	// pre-speculation value.
	if got := mustLoad(t, h2, p, 0); !got.Equal(IntVal(100)) {
		t.Fatalf("restored speculative value = %s, want 100", got)
	}
	if err := h2.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel on restored heap: %v", err)
	}
	if got := mustLoad(t, h2, p, 0); !got.Equal(IntVal(1)) {
		t.Fatalf("restored+rolled-back value = %s, want 1", got)
	}
	if _, err := h2.Load(r, 0); !errors.Is(err, ErrFreeEntry) {
		t.Fatalf("in-level alloc survived restore+rollback: %v", err)
	}
	checkInv(t, h2)
}

// TestRestoreRejectsMisSizedShadow: rollback copies a checkpoint record
// back over its block word for word, so a snapshot whose record is not
// block-sized cannot be restored.
func TestRestoreRejectsMisSizedShadow(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 3)
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(1))
	snap := h.Snapshot()
	sh := &snap.Levels[0].Shadows[0]
	sh.Words = sh.Words[:2]
	if _, err := Restore(snap, Config{}); !errors.Is(err, ErrShadowSize) {
		t.Fatalf("Restore with a 2-word shadow of a 3-word block: err = %v, want ErrShadowSize", err)
	}
}

func TestSnapshotAfterGCPreservesIndices(t *testing.T) {
	h := New(Config{})
	roots := &rootSet{}
	roots.attach(h)
	a := mustAlloc(t, h, 1)
	b := mustAlloc(t, h, 1)
	c := mustAlloc(t, h, 1)
	mustStore(t, h, a, 0, c) // a -> c; b is garbage
	_ = b
	roots.vals = []Value{a}
	h.CollectMajor()
	snap := h.Snapshot()
	h2, err := Restore(snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pointer a (by index) must still resolve and reference c's index.
	got := mustLoad(t, h2, a, 0)
	if got.Kind != KPtr || got.I != c.I {
		t.Fatalf("restored a[0] = %s, want pointer to index %d", got, c.I)
	}
}

// quickHeapOps drives a randomized sequence of heap operations and checks
// invariants afterwards — the property-based safety net for the
// COW/GC/level machinery.
func TestQuickHeapInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		h := New(Config{InitialWords: 512, MaxWords: 1 << 16})
		roots := &rootSet{}
		roots.attach(h)
		h.SetCollector(collectorFunc(func(h *Heap, need int) error {
			h.CollectMinor()
			if h.UsedWords()+need > h.ArenaWords() {
				h.CollectMajor()
			}
			return nil
		}))
		var ptrs []Value
		syncRoots := func() {
			roots.vals = append(roots.vals[:0], ptrs...)
		}
		for _, op := range ops {
			switch op % 8 {
			case 0, 1: // alloc
				p, err := h.Alloc(int64(op%16) + 1)
				if err != nil {
					return false
				}
				ptrs = append(ptrs, p)
				if len(ptrs) > 64 {
					ptrs = ptrs[1:]
				}
				syncRoots()
			case 2, 3: // store
				if len(ptrs) > 0 {
					p := ptrs[int(op/8)%len(ptrs)]
					sz, err := h.BlockSize(p)
					if err != nil || sz == 0 {
						continue
					}
					_ = h.Store(p, int64(op)%sz, IntVal(int64(op)))
				}
			case 4: // store a pointer (exercises barriers and mark)
				if len(ptrs) > 1 {
					p := ptrs[int(op/8)%len(ptrs)]
					q := ptrs[int(op/16)%len(ptrs)]
					sz, err := h.BlockSize(p)
					if err != nil || sz == 0 {
						continue
					}
					_ = h.Store(p, int64(op)%sz, q)
				}
			case 5: // enter level
				if h.LevelCount() < 6 {
					h.EnterLevel()
				}
			case 6: // commit or rollback a random level
				if n := h.LevelCount(); n > 0 {
					l := int(op/8)%n + 1
					if op%2 == 0 {
						if err := h.CommitLevel(l); err != nil {
							return false
						}
					} else {
						if err := h.RollbackLevel(l); err != nil {
							return false
						}
					}
				}
			case 7: // collect
				if op%2 == 0 {
					h.CollectMinor()
				} else {
					h.CollectMajor()
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Logf("invariant violated after op %d: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
