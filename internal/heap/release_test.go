package heap

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// poison fills words with what a dead heap may leave in its arena:
// pointers to table indices in and far out of range, and NaN floats.
func poison(words []Value) {
	for i := range words {
		switch i % 3 {
		case 0:
			words[i] = PtrVal(int64(i%16), 0)
		case 1:
			words[i] = PtrVal(1<<40+int64(i), int64(i))
		default:
			words[i] = FloatVal(math.NaN())
		}
	}
}

// drainArenas empties the arena pool, so the next take is a fresh make.
func drainArenas() {
	for arenaPool.p.Get() != nil {
	}
}

// onPoisonedArena gives the arena pool a poisoned buffer of n words and
// returns the heap build makes once that heap takes it. A sync.Pool may
// drop what it is given (the race detector makes it do so at random), so
// a heap that took another buffer is released and the test tries again.
func onPoisonedArena(t *testing.T, n int, build func() *Heap) *Heap {
	t.Helper()
	for i := 0; i < 100; i++ {
		drainArenas()
		b := make([]Value, n)
		poison(b)
		arenaPool.give(&b)
		h := build()
		if h.buf == &b {
			return h
		}
		h.Release()
	}
	t.Fatal("no heap took the poisoned arena")
	return nil
}

func mustZero(t *testing.T, h *Heap, p Value) {
	t.Helper()
	n, err := h.BlockSize(p)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < n; off++ {
		if w := mustLoad(t, h, p, off); !w.Equal(IntVal(0)) {
			t.Fatalf("%s word %d = %s on a reused arena, want 0", p, off, w)
		}
	}
}

// TestNewHeapOnReusedArena: a heap built on an arena a dead heap left
// poisoned reads 0 from every block it allocates, also after growing in
// place over the poison, and its collections follow no poison word: the
// in-range poison pointers name the garbage blocks, which still die.
func TestNewHeapOnReusedArena(t *testing.T) {
	h := onPoisonedArena(t, 1024, func() *Heap { return New(Config{InitialWords: 64}) })
	buf := h.buf
	roots := &rootSet{}
	roots.attach(h)
	for i, n := range []int64{3, 8, 1, 200, 5} {
		p := mustAlloc(t, h, n)
		mustZero(t, h, p)
		if i%2 == 0 {
			roots.vals = append(roots.vals, p)
		}
	}
	if st := h.Stats(); st.Grows != 1 || h.buf != buf {
		t.Fatalf("Grows = %d, same backing %v: the 200-word block should grow the arena once, in place", st.Grows, h.buf == buf)
	}
	mustStore(t, h, roots.vals[0], 1, roots.vals[1])
	checkInv(t, h)
	h.CollectMajor()
	checkInv(t, h)
	if got := h.LiveBlocks(); got != len(roots.vals) {
		t.Fatalf("LiveBlocks after a major collection = %d, want the %d rooted", got, len(roots.vals))
	}
	if w := mustLoad(t, h, roots.vals[0], 1); !w.Equal(roots.vals[1]) {
		t.Fatalf("stored pointer reads %s, want %s", w, roots.vals[1])
	}
	mustStore(t, h, roots.vals[0], 1, IntVal(0))
	for _, p := range roots.vals {
		mustZero(t, h, p)
	}
}

// TestRestoreOnReusedArena: a heap restored onto a poisoned arena reads
// back exactly the snapshot's words, open level and shadow included, and
// what it allocates next reads 0.
func TestRestoreOnReusedArena(t *testing.T) {
	src := New(Config{})
	a := mustAlloc(t, src, 4)
	b := mustAlloc(t, src, 300)
	mustStore(t, src, a, 0, b)
	mustStore(t, src, a, 1, FloatVal(2.5))
	mustStore(t, src, b, 299, IntVal(-7))
	src.EnterLevel()
	mustStore(t, src, a, 2, IntVal(9))
	snap := src.Snapshot()

	h := onPoisonedArena(t, 4096, func() *Heap {
		h, err := Restore(snap, Config{InitialWords: 64})
		if err != nil {
			t.Fatal(err)
		}
		return h
	})
	checkInv(t, h)
	if !h.Snapshot().Equal(snap) {
		t.Fatal("restored heap does not read back its snapshot")
	}
	roots := &rootSet{vals: []Value{a}}
	roots.attach(h)
	h.CollectMajor()
	checkInv(t, h)
	if !h.Snapshot().Equal(snap) {
		t.Fatal("restored heap changed across a major collection")
	}
	mustZero(t, h, mustAlloc(t, h, 40))
}

// statsScript runs a fixed sequence of allocations (some larger than the
// free arena), pointer stores, level enters and commits, with a collector
// that escalates as gc.Policy does, and returns the counters.
func statsScript(t *testing.T, h *Heap) Stats {
	roots := &rootSet{}
	roots.attach(h)
	h.SetCollector(collectorFunc(func(h *Heap, need int) error {
		h.CollectMinor()
		if float64(h.UsedWords()+need) > Headroom*float64(h.ArenaWords()) {
			h.CollectMajor()
		}
		return nil
	}))
	rng := rand.New(rand.NewSource(54))
	for i := 0; i < 3000; i++ {
		switch op := rng.Intn(10); {
		case op < 5:
			n := 1 + rng.Intn(12)
			if op == 0 && rng.Intn(10) == 0 {
				n = min(h.ArenaWords()-h.UsedWords()+1, 4096)
			}
			roots.vals = append(roots.vals, mustAlloc(t, h, int64(n)))
			if len(roots.vals) > 16 {
				roots.vals = roots.vals[1:]
			}
		case op < 8:
			if n := len(roots.vals); n > 0 {
				mustStore(t, h, roots.vals[rng.Intn(n)], 0, roots.vals[rng.Intn(n)])
			}
		default:
			if h.LevelCount() < 3 {
				h.EnterLevel()
			} else if err := h.CommitLevel(1 + rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkInv(t, h)
	return h.Stats()
}

// TestReusedArenaKeepsStats: the same script on a fresh arena and on a
// reused one, large enough to grow in place, collects, grows and moves
// exactly alike.
func TestReusedArenaKeepsStats(t *testing.T) {
	cfg := Config{InitialWords: 64, MaxWords: 1 << 16}
	drainArenas()
	fresh := New(cfg)
	if cap(*fresh.buf) != 64 {
		t.Fatalf("fresh arena has capacity %d, want 64", cap(*fresh.buf))
	}
	want := statsScript(t, fresh)
	reused := onPoisonedArena(t, 1<<15, func() *Heap { return New(cfg) })
	got := statsScript(t, reused)
	if got != want {
		t.Fatalf("stats on a reused arena:\n%+v\nfresh:\n%+v", got, want)
	}
	if want.Grows == 0 || want.MinorGCs == 0 || want.MajorGCs == 0 || want.WordsMoved == 0 {
		t.Fatalf("script never grew, collected or moved: %+v", want)
	}
	if reused.ArenaWords() != fresh.ArenaWords() || !reused.Snapshot().Equal(fresh.Snapshot()) {
		t.Fatal("the two runs end on different heaps")
	}
}

// TestReleasedHeapRefusesAccess: a released heap has no arena and no
// table; every access fails with a typed error, and an allocation does
// not quietly start a new arena.
func TestReleasedHeapRefusesAccess(t *testing.T) {
	h := New(Config{})
	p := mustAlloc(t, h, 4)
	h.EnterLevel()
	mustStore(t, h, p, 0, IntVal(1)) // a shadow for Release to give back
	h.Release()
	h.Release()
	if _, err := h.Load(p, 0); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("Load: %v, want ErrBadIndex", err)
	}
	if err := h.Store(p, 0, IntVal(2)); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("Store: %v, want ErrBadIndex", err)
	}
	if _, ok := h.TryLoad(p, 0); ok {
		t.Fatal("TryLoad read a released heap")
	}
	if h.TryStore(p, 0, IntVal(2)) {
		t.Fatal("TryStore wrote a released heap")
	}
	for _, n := range []int64{0, 1, 8192} {
		if _, err := h.Alloc(n); !errors.Is(err, ErrReleased) {
			t.Fatalf("Alloc(%d): %v, want ErrReleased", n, err)
		}
	}
	if err := h.RollbackLevel(1); !errors.Is(err, ErrBadLevel) {
		t.Fatalf("RollbackLevel: %v, want ErrBadLevel", err)
	}
	if h.ArenaWords() != 0 || h.TableLen() != 0 || h.LevelCount() != 0 {
		t.Fatalf("released heap has %d arena words, %d table entries, %d levels", h.ArenaWords(), h.TableLen(), h.LevelCount())
	}
	checkInv(t, h)
}
