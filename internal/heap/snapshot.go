package heap

import (
	"errors"
	"fmt"
)

// ErrShadowSize reports a snapshot checkpoint record whose word count
// differs from its block's: rollback copies a record back over its block
// word for word.
var ErrShadowSize = errors.New("heap: snapshot shadow size differs from its block's")

// Snapshot is the architecture-independent image of a heap used by the
// pack/unpack operations of process migration (§4.2.2). It preserves
// pointer-table order (indices in heap data stay valid), block contents,
// and the full speculation-level structure including checkpoint records,
// so a process can be migrated even while speculations are open.
type Snapshot struct {
	// TableLen is the pointer-table size; entry indices are preserved
	// exactly ("migration must be careful to preserve order in the pointer
	// and function tables").
	TableLen int
	// Entries holds the live blocks in index order. Level is the 1-based
	// ordinal of the speculation level owning the current copy, 0 when
	// committed.
	Entries []EntrySnap
	// Levels holds the open speculation levels, outermost first.
	Levels []LevelSnap
}

// EntrySnap is one live block in a snapshot.
type EntrySnap struct {
	Idx   int64
	Level int
	Words []Value
}

// LevelSnap is one speculation level in a snapshot.
type LevelSnap struct {
	Shadows []ShadowSnap
	Allocs  []int64
}

// ShadowSnap is one checkpoint record in a snapshot.
type ShadowSnap struct {
	Idx      int64
	OldLevel int
	Words    []Value
}

// ordOf maps a speculation-level ID to its current 1-based ordinal. IDs
// of committed (destroyed) levels map to 0: their ownership is
// semantically "committed" for every future comparison. The level stack
// is at most a few entries deep, so the linear scan replaces the
// per-capture id→ordinal map the old code allocated on every snapshot.
func (h *Heap) ordOf(id int64) int {
	for i := range h.levels {
		if h.levels[i].id == id {
			return i + 1
		}
	}
	return 0
}

// View fills s with the heap's current state — the live entries, levels,
// checkpoint records and in-level allocations Snapshot captures, with the
// same level ordinals — without copying a block: every entry's Words is a
// window on the arena itself, and every shadow's Words is the heap's own
// saved buffer. s is therefore valid only until the heap next changes (an
// allocation, store, collection or level operation): the arena windows
// until the next allocation, the shadow words until the next commit or
// rollback. It must be treated as read-only. s's slices keep their
// capacity across calls, so a caller that views the heap every checkpoint
// interval allocates nothing in steady state; Release drops the windows
// before s is parked in a pool.
func (h *Heap) View(s *Snapshot) {
	s.TableLen = len(h.table)
	live := 0
	for i := range h.table {
		if h.table[i].Addr >= 0 {
			live++
		}
	}
	if cap(s.Entries) < live {
		s.Entries = make([]EntrySnap, 0, live)
	}
	s.Entries = s.Entries[:0]
	for i := range h.table {
		e := &h.table[i]
		if e.Addr < 0 {
			continue
		}
		s.Entries = append(s.Entries, EntrySnap{Idx: int64(i), Level: h.ordOf(e.Level), Words: h.window(e.Addr, e.Size)})
	}
	s.Levels = h.viewLevels(s.Levels)
}

// window returns the arena words [addr, addr+size) with the capacity
// clipped, so an append to a view can never write into the arena.
func (h *Heap) window(addr, size int) []Value {
	return h.arena[addr : addr+size : addr+size]
}

// viewLevels fills dst (reusing its slices) with the open speculation
// levels, outermost first; shadow words are the heap's saved buffers,
// clipped to their length.
func (h *Heap) viewLevels(dst []LevelSnap) []LevelSnap {
	n := len(h.levels)
	if cap(dst) < n {
		dst = append(dst[:cap(dst)], make([]LevelSnap, n-cap(dst))...)
	}
	dst = dst[:n]
	for i := range h.levels {
		lv, ls := &h.levels[i], &dst[i]
		ls.Shadows, ls.Allocs = ls.Shadows[:0], ls.Allocs[:0]
		for _, sh := range lv.shadows {
			ls.Shadows = append(ls.Shadows, ShadowSnap{Idx: sh.Idx, OldLevel: h.ordOf(sh.OldLevel), Words: sh.Words[:len(sh.Words):len(sh.Words)]})
		}
		for _, r := range lv.allocs {
			if h.refValid(r) {
				ls.Allocs = append(ls.Allocs, r.idx)
			}
		}
	}
	return dst
}

// Release drops every window a View left in s, keeping the slices'
// capacity for the next View, so a pooled view never pins the arena or
// the saved words of a heap that has since moved on or been discarded.
func (s *Snapshot) Release() {
	clear(s.Entries[:cap(s.Entries)])
	for i := range s.Levels[:cap(s.Levels)] {
		ls := &s.Levels[i]
		clear(ls.Shadows[:cap(ls.Shadows)])
	}
}

// EntryWords returns the number of words in s's live blocks (checkpoint
// records excluded): the heap size an image announces.
func (s *Snapshot) EntryWords() int {
	n := 0
	for _, e := range s.Entries {
		n += len(e.Words)
	}
	return n
}

// Snapshot captures the current heap state: View plus a copy of every
// block, so the result stays valid while the heap moves on. Callers
// normally run a major collection first (the paper's pack operation
// begins with one), producing a minimal image.
func (h *Heap) Snapshot() *Snapshot {
	s := &Snapshot{}
	h.View(s)
	total := s.EntryWords()
	for _, ls := range s.Levels {
		for _, sh := range ls.Shadows {
			total += len(sh.Words)
		}
	}
	// One backing array for every copied block; three-index slicing keeps
	// the per-block views from aliasing on append.
	backing := make([]Value, 0, total)
	own := func(words []Value) []Value {
		lo := len(backing)
		backing = append(backing, words...)
		return backing[lo:len(backing):len(backing)]
	}
	for i := range s.Entries {
		s.Entries[i].Words = own(s.Entries[i].Words)
	}
	for _, ls := range s.Levels {
		for j := range ls.Shadows {
			ls.Shadows[j].Words = own(ls.Shadows[j].Words)
		}
	}
	return s
}

// Restore builds a fresh heap from a snapshot. This is the unpack
// operation: block data is laid out in a new arena (entry order), the
// pointer table is rebuilt at the original size with original indices, and
// the speculation-level stack is reconstructed with fresh level IDs. The
// checkpoint records' words go to saved buffers off the arena.
func Restore(s *Snapshot, cfg Config) (*Heap, error) {
	cfg = cfg.withDefaults()
	// An image larger than the configured arena gets the size growth would
	// give it, headroom included, so the first allocation after a restore
	// does not have to grow it again.
	if need := s.EntryWords(); cfg.InitialWords < need {
		cfg.MaxWords = max(cfg.MaxWords, need)
		cfg.InitialWords = grownWords(cfg.InitialWords, need, cfg.MaxWords)
	}
	h := New(cfg)
	h.table = make([]entry, s.TableLen)
	for i := range h.table {
		h.table[i].Addr = -1
	}

	// Fresh level IDs 1..N for the restored stack; ordinal 0 maps to
	// committed state.
	ordinalID := make([]int64, len(s.Levels)+1)
	for i := 1; i <= len(s.Levels); i++ {
		ordinalID[i] = int64(i)
	}
	h.nextLevel = int64(len(s.Levels)) + 1

	for _, es := range s.Entries {
		if es.Idx < 0 || es.Idx >= int64(s.TableLen) {
			return nil, fmt.Errorf("heap: snapshot entry index %d outside table of %d", es.Idx, s.TableLen)
		}
		if h.table[es.Idx].Addr >= 0 {
			return nil, fmt.Errorf("heap: snapshot entry index %d duplicated", es.Idx)
		}
		if es.Level < 0 || es.Level > len(s.Levels) {
			return nil, fmt.Errorf("heap: snapshot entry %d has level %d of %d", es.Idx, es.Level, len(s.Levels))
		}
		addr, err := h.allocRun(len(es.Words))
		if err != nil {
			return nil, err
		}
		copy(h.arena[addr:addr+len(es.Words)], es.Words)
		h.seq++
		e := &h.table[es.Idx]
		e.Addr = addr
		e.Size = len(es.Words)
		e.Gen = genOld
		e.Level = ordinalID[es.Level]
		e.Seq = h.seq
	}
	// Rebuild the free list for slots with no live entry.
	for i := range h.table {
		if h.table[i].Addr < 0 {
			h.freeList = append(h.freeList, int64(i))
		}
	}

	for li, ls := range s.Levels {
		lv := level{id: ordinalID[li+1]}
		for _, sh := range ls.Shadows {
			if sh.Idx < 0 || sh.Idx >= int64(s.TableLen) || h.table[sh.Idx].Addr < 0 {
				return nil, fmt.Errorf("heap: snapshot shadow refers to missing entry %d", sh.Idx)
			}
			if sh.OldLevel < 0 || sh.OldLevel > len(s.Levels) {
				return nil, fmt.Errorf("heap: snapshot shadow has level %d of %d", sh.OldLevel, len(s.Levels))
			}
			if len(sh.Words) != h.table[sh.Idx].Size {
				return nil, fmt.Errorf("%w: entry %d has %d words, its shadow %d", ErrShadowSize, sh.Idx, h.table[sh.Idx].Size, len(sh.Words))
			}
			lv.shadows = append(lv.shadows, newShadow(sh.Idx, sh.Words, ordinalID[sh.OldLevel]))
		}
		for _, idx := range ls.Allocs {
			if idx < 0 || idx >= int64(s.TableLen) {
				return nil, fmt.Errorf("heap: snapshot alloc list refers to index %d outside table", idx)
			}
			if h.table[idx].Addr >= 0 {
				lv.allocs = append(lv.allocs, ref{idx: idx, ver: h.table[idx].Version})
			}
		}
		// Ownership is reconstructible: a level owns its in-level
		// allocations plus every entry whose current copy it created.
		for i := range h.table {
			if h.table[i].Addr >= 0 && h.table[i].Level == lv.id {
				lv.owned = append(lv.owned, ref{idx: int64(i), ver: h.table[i].Version})
			}
		}
		h.levels = append(h.levels, lv)
	}
	// Everything restored is old generation.
	h.watermark = h.allocPtr
	return h, nil
}

// Equal reports whether two snapshots describe identical heap states.
// Used by tests to verify pack/unpack and speculation rollback fidelity.
func (s *Snapshot) Equal(t *Snapshot) bool {
	if s.TableLen != t.TableLen || len(s.Entries) != len(t.Entries) || len(s.Levels) != len(t.Levels) {
		return false
	}
	for i := range s.Entries {
		a, b := s.Entries[i], t.Entries[i]
		if a.Idx != b.Idx || a.Level != b.Level || len(a.Words) != len(b.Words) {
			return false
		}
		for j := range a.Words {
			if !a.Words[j].Equal(b.Words[j]) {
				return false
			}
		}
	}
	for i := range s.Levels {
		la, lb := s.Levels[i], t.Levels[i]
		if len(la.Shadows) != len(lb.Shadows) || len(la.Allocs) != len(lb.Allocs) {
			return false
		}
		for j := range la.Shadows {
			a, b := la.Shadows[j], lb.Shadows[j]
			if a.Idx != b.Idx || a.OldLevel != b.OldLevel || len(a.Words) != len(b.Words) {
				return false
			}
			for k := range a.Words {
				if !a.Words[k].Equal(b.Words[k]) {
					return false
				}
			}
		}
		for j := range la.Allocs {
			if la.Allocs[j] != lb.Allocs[j] {
				return false
			}
		}
	}
	return true
}
