package heap

import (
	"errors"
	"testing"
)

func mustAlloc(t *testing.T, h *Heap, n int64) Value {
	t.Helper()
	v, err := h.Alloc(n)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", n, err)
	}
	return v
}

func mustStore(t *testing.T, h *Heap, p Value, off int64, v Value) {
	t.Helper()
	if err := h.Store(p, off, v); err != nil {
		t.Fatalf("Store(%s, %d, %s): %v", p, off, v, err)
	}
}

func mustLoad(t *testing.T, h *Heap, p Value, off int64) Value {
	t.Helper()
	v, err := h.Load(p, off)
	if err != nil {
		t.Fatalf("Load(%s, %d): %v", p, off, err)
	}
	return v
}

func checkInv(t *testing.T, h *Heap) {
	t.Helper()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestAllocLoadStore(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 4)
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(0)) {
		t.Fatalf("fresh block word = %s, want 0", got)
	}
	mustStore(t, h, p, 2, IntVal(42))
	if got := mustLoad(t, h, p, 2); !got.Equal(IntVal(42)) {
		t.Fatalf("load = %s, want 42", got)
	}
	mustStore(t, h, p, 3, FloatVal(2.5))
	if got := mustLoad(t, h, p, 3); !got.Equal(FloatVal(2.5)) {
		t.Fatalf("load = %s, want 2.5", got)
	}
	checkInv(t, h)
}

func TestPointerOffsetAccess(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 8)
	q := p
	q.Off = 3
	mustStore(t, h, q, 2, IntVal(7)) // effective offset 5
	if got := mustLoad(t, h, p, 5); !got.Equal(IntVal(7)) {
		t.Fatalf("load via base = %s, want 7", got)
	}
}

func TestSafetyChecks(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 2)

	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"load out of bounds", func() error { _, err := h.Load(p, 2); return err }, ErrBounds},
		{"load negative", func() error { _, err := h.Load(p, -1); return err }, ErrBounds},
		{"store out of bounds", func() error { return h.Store(p, 99, IntVal(1)) }, ErrBounds},
		{"null deref", func() error { _, err := h.Load(Null(), 0); return err }, ErrNullPointer},
		{"bad index", func() error { _, err := h.Load(PtrVal(999, 0), 0); return err }, ErrBadIndex},
		{"not a pointer", func() error { _, err := h.Load(IntVal(3), 0); return err }, ErrNotPointer},
		{"store unit", func() error { return h.Store(p, 0, UnitVal()) }, ErrBadStore},
	}
	for _, tc := range cases {
		if err := tc.do(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestFreeEntryDetected(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 2)
	// Drop the block and collect: entry becomes free.
	h.CollectMajor()
	if _, err := h.Load(p, 0); !errors.Is(err, ErrFreeEntry) {
		t.Fatalf("load from collected block: err = %v, want ErrFreeEntry", err)
	}
}

func TestSpeculationRollbackRestoresState(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 3)
	mustStore(t, h, p, 0, IntVal(10))
	mustStore(t, h, p, 1, IntVal(20))

	n := h.EnterLevel()
	if n != 1 {
		t.Fatalf("EnterLevel = %d, want 1", n)
	}
	mustStore(t, h, p, 0, IntVal(999))
	q := mustAlloc(t, h, 5) // allocated inside the level
	mustStore(t, h, q, 0, IntVal(1))
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(999)) {
		t.Fatalf("in-level load = %s, want 999", got)
	}
	checkInv(t, h)

	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(10)) {
		t.Fatalf("post-rollback load = %s, want 10", got)
	}
	if got := mustLoad(t, h, p, 1); !got.Equal(IntVal(20)) {
		t.Fatalf("post-rollback load = %s, want 20", got)
	}
	if _, err := h.Load(q, 0); !errors.Is(err, ErrFreeEntry) {
		t.Fatalf("in-level allocation survived rollback: err = %v", err)
	}
	if h.LevelCount() != 0 {
		t.Fatalf("LevelCount = %d, want 0", h.LevelCount())
	}
	checkInv(t, h)
}

func TestSpeculationCommitKeepsChanges(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 2)
	mustStore(t, h, p, 0, IntVal(1))

	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(2))
	if err := h.CommitLevel(1); err != nil {
		t.Fatalf("CommitLevel: %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(2)) {
		t.Fatalf("post-commit load = %s, want 2", got)
	}
	if h.LevelCount() != 0 {
		t.Fatalf("LevelCount = %d, want 0", h.LevelCount())
	}
	checkInv(t, h)
}

func TestNestedLevelsRollbackInner(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 1)
	mustStore(t, h, p, 0, IntVal(1))

	h.EnterLevel() // level 1
	mustStore(t, h, p, 0, IntVal(2))
	h.EnterLevel() // level 2
	mustStore(t, h, p, 0, IntVal(3))

	if err := h.RollbackLevel(2); err != nil {
		t.Fatalf("RollbackLevel(2): %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(2)) {
		t.Fatalf("after inner rollback load = %s, want 2", got)
	}
	// Level 1 still open (rollback pops to 1, but heap-level rollback
	// leaves the stack at n-1 levels; the spec manager re-enters).
	if h.LevelCount() != 1 {
		t.Fatalf("LevelCount = %d, want 1", h.LevelCount())
	}
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel(1): %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(1)) {
		t.Fatalf("after outer rollback load = %s, want 1", got)
	}
	checkInv(t, h)
}

func TestOuterRollbackDiscardsInnerLevels(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 1)
	mustStore(t, h, p, 0, IntVal(1))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(2))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(3))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(4))

	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel(1): %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(1)) {
		t.Fatalf("load = %s, want 1", got)
	}
	if h.LevelCount() != 0 {
		t.Fatalf("LevelCount = %d, want 0", h.LevelCount())
	}
	checkInv(t, h)
}

func TestOutOfOrderCommit(t *testing.T) {
	// Enter levels 1 and 2, modify the same block in both, then commit
	// level 1 first (out of order) and roll back what is now level 1
	// (formerly level 2): the level-2 changes must revert to the state at
	// entry of level 2.
	h := New(Config{})
	p := mustAlloc(t, h, 1)
	mustStore(t, h, p, 0, IntVal(1))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(2))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(3))

	if err := h.CommitLevel(1); err != nil {
		t.Fatalf("CommitLevel(1): %v", err)
	}
	if h.LevelCount() != 1 {
		t.Fatalf("LevelCount = %d, want 1", h.LevelCount())
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(3)) {
		t.Fatalf("load = %s, want 3", got)
	}
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(2)) {
		t.Fatalf("post-rollback load = %s, want 2 (state at entry of old level 2)", got)
	}
	checkInv(t, h)
}

func TestCommitFoldsShadowsDownward(t *testing.T) {
	// Modify a block in level 1 and again in level 2; commit level 2.
	// Rolling back level 1 must restore the pre-speculation state.
	h := New(Config{})
	p := mustAlloc(t, h, 1)
	mustStore(t, h, p, 0, IntVal(1))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(2))
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(3))

	if err := h.CommitLevel(2); err != nil {
		t.Fatalf("CommitLevel(2): %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(3)) {
		t.Fatalf("load = %s, want 3", got)
	}
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel: %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(1)) {
		t.Fatalf("post-rollback load = %s, want 1", got)
	}
	checkInv(t, h)
}

func TestCommitMovesShadowWhenBelowHasNone(t *testing.T) {
	// Block modified only in level 2; commit level 2; rollback level 1
	// must still restore the original value (the shadow moved down).
	h := New(Config{})
	p := mustAlloc(t, h, 1)
	mustStore(t, h, p, 0, IntVal(7))
	h.EnterLevel()
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(8))
	if err := h.CommitLevel(2); err != nil {
		t.Fatalf("CommitLevel(2): %v", err)
	}
	if err := h.RollbackLevel(1); err != nil {
		t.Fatalf("RollbackLevel(1): %v", err)
	}
	if got := mustLoad(t, h, p, 0); !got.Equal(IntVal(7)) {
		t.Fatalf("load = %s, want 7", got)
	}
	checkInv(t, h)
}

func TestCowOnlyOnFirstWritePerLevel(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 4)
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(1))
	c1 := h.Stats().Clones
	mustStore(t, h, p, 1, IntVal(2))
	mustStore(t, h, p, 2, IntVal(3))
	if c2 := h.Stats().Clones; c2 != c1 {
		t.Fatalf("clones went %d -> %d on repeat stores in same level", c1, c2)
	}
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(9))
	if c3 := h.Stats().Clones; c3 != c1+1 {
		t.Fatalf("clones = %d, want %d (one clone per level)", c3, c1+1)
	}
	checkInv(t, h)
}

func TestStringRoundTrip(t *testing.T) {
	h := New(Config{})
	for _, s := range []string{"", "a", "checkpoint://ckpt-1", "héllo wörld", "migrate://host:9000"} {
		p, err := h.AllocString(s)
		if err != nil {
			t.Fatalf("AllocString(%q): %v", s, err)
		}
		got, err := h.LoadString(p)
		if err != nil {
			t.Fatalf("LoadString(%q): %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip = %q, want %q", got, s)
		}
	}
}

func TestStringWithOffset(t *testing.T) {
	h := New(Config{})
	p, err := h.AllocString("abcdef")
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.Off = 2
	got, err := h.LoadString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != "cdef" {
		t.Fatalf("offset string = %q, want %q", got, "cdef")
	}
}

func TestMutateFraction(t *testing.T) {
	h := New(Config{})
	var ptrs []Value
	for i := 0; i < 10; i++ {
		ptrs = append(ptrs, mustAlloc(t, h, 2))
	}
	if f := h.MutateFraction(); f != 0 {
		t.Fatalf("MutateFraction = %v, want 0", f)
	}
	h.EnterLevel()
	for i := 0; i < 5; i++ {
		mustStore(t, h, ptrs[i], 0, IntVal(int64(i)))
	}
	if f := h.MutateFraction(); f != 0.5 {
		t.Fatalf("MutateFraction = %v, want 0.5", f)
	}
}

// fastPathHeap is a heap with a committed block p, a freed entry dead and,
// inside an open speculation level, a block q that level owns.
type fastPathHeap struct {
	h          *Heap
	p, q, dead Value
}

func newFastPathHeap(t *testing.T, dirty bool) fastPathHeap {
	h := New(Config{TrackDirty: dirty})
	dead := mustAlloc(t, h, 1)
	h.CollectMajor() // no roots: dead's entry is freed
	p := mustAlloc(t, h, 3)
	mustStore(t, h, p, 1, FloatVal(2.5))
	h.EnterLevel()
	q := mustAlloc(t, h, 2)
	return fastPathHeap{h, p, q, dead}
}

// TestFastPathsAgreeWithLoadStore: TryLoad reads what Load reads and
// refuses wherever Load fails; TryStore refuses wherever Store fails or has
// more to do than write the word (a copy-on-write clone, a remembered-set
// entry, a dirty mark), and otherwise leaves the heap exactly as Store
// does.
func TestFastPathsAgreeWithLoadStore(t *testing.T) {
	b := newFastPathHeap(t, false)
	at := func(v Value, off int64) Value { v.Off = off; return v }
	for _, tc := range []struct {
		ptr Value
		off int64
	}{
		{b.p, 0}, {b.p, 1}, {b.p, 2}, {b.p, 3}, {b.p, -1}, {at(b.p, 2), 0}, {at(b.p, 2), 1}, {at(b.p, 5), -4},
		{b.q, 1}, {b.dead, 0}, {Null(), 0}, {PtrVal(999, 0), 0}, {PtrVal(-7, 0), 0}, {IntVal(0), 0}, {FloatVal(1), 0},
	} {
		want, err := b.h.Load(tc.ptr, tc.off)
		got, ok := b.h.TryLoad(tc.ptr, tc.off)
		if ok != (err == nil) || ok && !got.Equal(want) {
			t.Errorf("load %s+%d: TryLoad %s, %v; Load %s, %v", tc.ptr, tc.off, got, ok, want, err)
		}
	}

	for _, tc := range []struct {
		name  string
		dirty bool
		ptr   func(fastPathHeap) Value
		off   int64
		v     Value
		fast  bool // TryStore does the store itself
	}{
		{"int into an owned block", false, func(b fastPathHeap) Value { return b.q }, 1, IntVal(4), true},
		{"float into an owned block", false, func(b fastPathHeap) Value { return b.q }, 0, FloatVal(0.5), true},
		{"through an offset pointer", false, func(b fastPathHeap) Value { return at(b.q, 1) }, 0, IntVal(4), true},
		{"into a block an older level owns", false, func(b fastPathHeap) Value { return b.p }, 0, IntVal(4), false},
		{"a pointer", false, func(b fastPathHeap) Value { return b.q }, 0, PtrVal(0, 0), false},
		{"a function", false, func(b fastPathHeap) Value { return b.q }, 0, FunVal(1), false},
		{"unit", false, func(b fastPathHeap) Value { return b.q }, 0, UnitVal(), false},
		{"out of bounds", false, func(b fastPathHeap) Value { return b.q }, 2, IntVal(4), false},
		{"negative offset", false, func(b fastPathHeap) Value { return b.q }, -1, IntVal(4), false},
		{"freed entry", false, func(b fastPathHeap) Value { return b.dead }, 0, IntVal(4), false},
		{"null", false, func(fastPathHeap) Value { return Null() }, 0, IntVal(4), false},
		{"not a pointer", false, func(fastPathHeap) Value { return IntVal(0) }, 0, IntVal(4), false},
		{"with delta tracking on", true, func(b fastPathHeap) Value { return b.q }, 1, IntVal(4), false},
	} {
		ref, sut, untouched := newFastPathHeap(t, tc.dirty), newFastPathHeap(t, tc.dirty), newFastPathHeap(t, tc.dirty)
		err := ref.h.Store(tc.ptr(ref), tc.off, tc.v)
		ok := sut.h.TryStore(tc.ptr(sut), tc.off, tc.v)
		switch {
		case ok != tc.fast:
			t.Errorf("%s: TryStore = %v, want %v", tc.name, ok, tc.fast)
		case ok && (err != nil || !sut.h.Snapshot().Equal(ref.h.Snapshot())):
			t.Errorf("%s: TryStore stored, Store %v or left another heap", tc.name, err)
		case !ok && !sut.h.Snapshot().Equal(untouched.h.Snapshot()):
			t.Errorf("%s: TryStore refused but changed the heap", tc.name)
		}
	}
}
