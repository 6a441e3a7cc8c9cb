package heap

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// modelState is the plain-Go model of a heap: every block's words by
// table index, and the root set a program holds. Blocks the roots no
// longer reach stay in the map as garbage; the model never reads them.
type modelState struct {
	roots  []Value
	blocks map[int64][]Value
}

func (m modelState) clone() modelState {
	c := modelState{roots: slices.Clone(m.roots), blocks: maps.Clone(m.blocks)}
	for idx, w := range c.blocks {
		c.blocks[idx] = slices.Clone(w)
	}
	return c
}

// heapModel runs a heap beside its model. saved[i] is the state at entry
// of open level i+1: the rollback point, and — like a speculation's saved
// continuation — a root set the collector must honour.
type heapModel struct {
	t     *testing.T
	h     *Heap
	cur   modelState
	saved []modelState
	grows int // arena growths the allocations caused
}

func (hm *heapModel) attach() {
	hm.h.AddRoots(func(yield func(Value)) {
		for _, v := range hm.cur.roots {
			yield(v)
		}
		for _, s := range hm.saved {
			for _, v := range s.roots {
				yield(v)
			}
		}
	})
	hm.h.SetCollector(collectorFunc(func(h *Heap, need int) error {
		h.CollectMinor()
		if h.UsedWords()+need > h.ArenaWords() {
			h.CollectMajor()
		}
		return nil
	}))
}

// step applies one random operation to the heap and the model alike.
func (hm *heapModel) step(rng *rand.Rand) {
	h, m := hm.h, &hm.cur
	pick := func() Value { return m.roots[rng.Intn(len(m.roots))] }
	switch op := rng.Intn(17); {
	case op < 3, op == 15: // alloc; a few small rooted blocks keep pointer stores and overwrites dense
		n := 1 + rng.Intn(6)
		if op == 15 {
			// Now and then a block larger than the free arena, so growth
			// runs with live data and open levels (bounded, so the live
			// set stays far below MaxWords).
			n = min(h.ArenaWords()-h.UsedWords()+1+rng.Intn(8), 1024)
		}
		grows := h.Stats().Grows
		p, err := h.Alloc(int64(n))
		if err != nil {
			hm.t.Fatalf("alloc: %v", err)
		}
		hm.grows += int(h.Stats().Grows - grows)
		m.blocks[p.I] = make([]Value, n)
		for i := range m.blocks[p.I] {
			m.blocks[p.I][i] = IntVal(0)
		}
		m.roots = append(m.roots, p)
		if len(m.roots) > 8 {
			m.roots = m.roots[1:]
		}
	case op < 8: // store an int, a float or a pointer
		if len(m.roots) == 0 {
			return
		}
		p := pick()
		words := m.blocks[p.I]
		off := rng.Intn(len(words))
		var v Value
		switch rng.Intn(3) {
		case 0:
			v = IntVal(rng.Int63n(1000))
		case 1:
			v = FloatVal(rng.Float64())
		default:
			v = pick()
		}
		if err := h.Store(p, int64(off), v); err != nil {
			hm.t.Fatalf("store %s+%d: %v", p, off, err)
		}
		words[off] = v
	case op < 10: // drop one of the newest roots: a young block some other block may be all that reaches
		if n := len(m.roots); n > 0 {
			i := n - 1 - rng.Intn(min(n, 4))
			m.roots = slices.Delete(m.roots, i, i+1)
		}
	case op < 11: // enter a level
		if len(hm.saved) < 6 {
			h.EnterLevel()
			hm.saved = append(hm.saved, m.clone())
		}
	case op < 12: // commit a random level, often out of order
		if n := len(hm.saved); n > 0 {
			l := 1 + rng.Intn(n)
			if err := h.CommitLevel(l); err != nil {
				hm.t.Fatalf("commit %d: %v", l, err)
			}
			hm.saved = slices.Delete(hm.saved, l-1, l)
		}
	case op < 13: // roll a random level back
		if n := len(hm.saved); n > 0 {
			l := 1 + rng.Intn(n)
			if err := h.RollbackLevel(l); err != nil {
				hm.t.Fatalf("rollback %d: %v", l, err)
			}
			hm.cur = hm.saved[l-1]
			hm.saved = hm.saved[:l-1]
		}
	case op < 14:
		h.CollectMinor()
	case op < 15:
		h.CollectMajor()
	default: // Snapshot -> Release -> Restore round trip: the restored heap may take the released arena
		snap := h.Snapshot()
		h.Release()
		h2, err := Restore(snap, Config{InitialWords: 64})
		if err != nil {
			hm.t.Fatalf("restore: %v", err)
		}
		if !h2.Snapshot().Equal(snap) {
			hm.t.Fatal("snapshot -> restore -> snapshot is not a fixed point")
		}
		hm.h = h2
		hm.attach()
	}
}

// verify checks that every block the model's roots reach reads back word
// for word, and that the level stacks agree.
func (hm *heapModel) verify() {
	if got, want := hm.h.LevelCount(), len(hm.saved); got != want {
		hm.t.Fatalf("heap has %d levels, model %d", got, want)
	}
	seen := make(map[int64]bool)
	stack := slices.Clone(hm.cur.roots)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p.I] {
			continue
		}
		seen[p.I] = true
		for off, want := range hm.cur.blocks[p.I] {
			got, err := hm.h.Load(p, int64(off))
			if err != nil {
				hm.t.Fatalf("block %d word %d: %v", p.I, off, err)
			}
			if !got.Equal(want) {
				hm.t.Fatalf("block %d word %d = %s, model %s", p.I, off, got, want)
			}
			if want.Kind == KPtr {
				stack = append(stack, want)
			}
		}
	}
	if err := hm.h.CheckInvariants(); err != nil {
		hm.t.Fatalf("invariants: %v", err)
	}
}

// TestQuickHeapMatchesModel drives random allocations (some larger than
// the free arena), stores, level enters, commits at any ordinal,
// rollbacks, collections and snapshot → release → restore round trips
// against the model, so a rollback that restores the wrong words — not
// just a broken invariant — fails, and so does a restored heap that reads
// what its reused arena held before.
func TestQuickHeapMatchesModel(t *testing.T) {
	grows := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hm := &heapModel{
			t:   t,
			h:   New(Config{InitialWords: 256, MaxWords: 1 << 16}),
			cur: modelState{blocks: make(map[int64][]Value)},
		}
		hm.attach()
		for i := 0; i < 400; i++ {
			hm.step(rng)
			hm.verify()
		}
		grows += hm.grows
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if grows == 0 {
		t.Fatal("no allocation grew the arena")
	}
}
