package heap

import (
	"fmt"
	"slices"
)

// This file implements the collection *mechanism*: generational mark-sweep
// with sliding compaction (the paper's minor/major phases, §4), plus a
// breadth-first copying order used as the ablation baseline for the
// temporal-locality claim. The collection *policy* — when to run which
// phase — lives in internal/gc, which drives these methods through the
// Collector interface.
//
// The paper's claim reproduced here: sliding compaction preserves temporal
// allocation order, so blocks allocated near each other in time stay near
// each other in memory, unlike breadth-first copying collectors.

// gatherRoots yields every root value from the registered providers.
func (h *Heap) gatherRoots(yield func(Value)) {
	for _, fn := range h.roots {
		fn(yield)
	}
}

// validLive reports whether idx names a live (non-free) table entry.
func (h *Heap) validLive(idx int64) bool {
	return idx >= 0 && idx < int64(len(h.table)) && h.table[idx].Addr >= 0
}

// markFrom marks entries transitively reachable from idx. When youngOnly is
// set, traversal stops at old-generation entries (minor collection relies
// on the remembered set and pinning to cover old→young edges).
func (h *Heap) markFrom(idx int64, youngOnly bool) {
	if !h.validLive(idx) || h.table[idx].Mark {
		return
	}
	if youngOnly && h.table[idx].Gen == genOld {
		return
	}
	h.table[idx].Mark = true
	h.markScratch = append(h.markScratch, idx)
}

// scanRun pushes every pointer word in an arena run onto the mark stack.
func (h *Heap) scanRun(addr, size int, youngOnly bool) {
	h.scanWords(h.arena[addr:addr+size], youngOnly)
}

// scanWords pushes every pointer word in words onto the mark stack.
func (h *Heap) scanWords(words []Value, youngOnly bool) {
	for _, w := range words {
		if w.Kind == KPtr && w.I >= 0 {
			h.markFrom(w.I, youngOnly)
		}
	}
}

func (h *Heap) drainMarkStack(youngOnly bool) {
	for n := len(h.markScratch); n > 0; n = len(h.markScratch) {
		idx := h.markScratch[n-1]
		h.markScratch = h.markScratch[:n-1]
		e := &h.table[idx]
		h.scanRun(e.Addr, e.Size, youngOnly)
	}
}

// run is an entry's block: a contiguous live region of the arena due to
// be relocated.
type run struct {
	addr, size int
	entry      int64
}

// liveRuns collects every live run at or above the floor address, sorted by
// address. Runs never overlap: every run is a distinct allocation.
func (h *Heap) liveRuns(floor int) []run {
	runs := h.runsScratch[:0]
	for i := range h.table {
		e := &h.table[i]
		if e.Addr >= floor && e.Mark {
			runs = append(runs, run{addr: e.Addr, size: e.Size, entry: int64(i)})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return a.addr - b.addr })
	h.runsScratch = runs
	return runs
}

// relocate moves a run to dst and updates its entry's address.
func (h *Heap) relocate(r run, dst int) {
	if dst != r.addr {
		copy(h.arena[dst:dst+r.size], h.arena[r.addr:r.addr+r.size])
		h.stats.WordsMoved += uint64(r.size)
	}
	h.table[r.entry].Addr = dst
}

// markMajor runs a full mark phase: roots, speculation continuations (via
// root providers), and all checkpoint records. Shadowed entries are pinned,
// and their saved words are scanned: the blocks those words reference are
// live again after a rollback.
func (h *Heap) markMajor() {
	h.markScratch = h.markScratch[:0]
	h.gatherRoots(h.markRootMajor)
	h.drainMarkStack(false)
	for lp := range h.levels {
		lv := &h.levels[lp]
		for sp := range lv.shadows {
			s := &lv.shadows[sp]
			h.markFrom(s.Idx, false)
			h.scanWords(s.Words, false)
			h.drainMarkStack(false)
		}
		// Blocks owned by open levels are pinned conservatively: the saved
		// continuation may be the only path back to them after a rollback.
		for _, r := range lv.owned {
			if h.refValid(r) {
				h.markFrom(r.idx, false)
				h.drainMarkStack(false)
			}
		}
	}
}

// sweepUnmarked frees every live-but-unmarked entry (minYoung restricts the
// sweep to the young generation for minor collections).
func (h *Heap) sweepUnmarked(youngOnly bool) {
	for i := range h.table {
		e := &h.table[i]
		if e.Addr < 0 {
			continue
		}
		if youngOnly && e.Gen == genOld {
			continue
		}
		if !e.Mark {
			h.freeEntry(int64(i))
		}
	}
}

func (h *Heap) clearMarks() {
	for i := range h.table {
		h.table[i].Mark = false
	}
}

// promoteAll moves every surviving entry into the old generation and
// resets the young-region watermark to the allocation frontier.
func (h *Heap) promoteAll() {
	for i := range h.table {
		if h.table[i].Addr >= 0 {
			h.table[i].Gen = genOld
		}
	}
	h.watermark = h.allocPtr
	clear(h.remembered)
}

// CollectMajor performs a full mark-sweep-compact collection: mark from
// all roots and checkpoint records, free unmarked entries, then slide
// every live run downward preserving allocation (temporal) order.
func (h *Heap) CollectMajor() {
	h.markMajor()
	h.sweepUnmarked(false)
	runs := h.liveRuns(0)
	dst := 0
	for _, r := range runs {
		h.relocate(r, dst)
		dst += r.size
	}
	h.allocPtr = dst
	h.clearMarks()
	h.promoteAll()
	h.stats.MajorGCs++
}

// CollectMinor performs a young-generation collection: mark young entries
// reachable from roots, the remembered set, speculation-owned blocks and
// checkpoint records; free dead young entries; slide surviving young runs
// down to the watermark; promote survivors.
func (h *Heap) CollectMinor() {
	h.markScratch = h.markScratch[:0]
	h.gatherRoots(h.markRootMinor)
	h.drainMarkStack(true)
	// Remembered old entries may hold the only references to young blocks.
	for idx := range h.remembered {
		if h.validLive(idx) {
			e := &h.table[idx]
			h.scanRun(e.Addr, e.Size, true)
		}
	}
	h.drainMarkStack(true)
	// Checkpoint records pin their entries, and their saved words may
	// reference young blocks whatever the entry's own generation.
	for lp := range h.levels {
		lv := &h.levels[lp]
		for sp := range lv.shadows {
			s := &lv.shadows[sp]
			h.markFrom(s.Idx, true)
			h.scanWords(s.Words, true)
			h.drainMarkStack(true)
		}
		for _, r := range lv.owned {
			if h.refValid(r) {
				h.markFrom(r.idx, true)
				h.drainMarkStack(true)
			}
		}
	}
	h.sweepUnmarked(true)
	// Slide live young runs down onto the watermark, preserving temporal
	// order within the nursery.
	runs := h.liveRuns(h.watermark)
	dst := h.watermark
	for _, r := range runs {
		h.relocate(r, dst)
		dst += r.size
	}
	h.allocPtr = dst
	h.clearMarks()
	h.promoteAll()
	h.stats.MinorGCs++
}

// CheckInvariants verifies the heap's representation invariants. It is
// called from property-based tests after randomized operation sequences;
// any violation is a bug in the heap, the collector or the speculation
// machinery.
func (h *Heap) CheckInvariants() error {
	if h.allocPtr < 0 || h.allocPtr > len(h.arena) {
		return fmt.Errorf("allocPtr %d outside arena [0,%d]", h.allocPtr, len(h.arena))
	}
	if h.watermark < 0 || h.watermark > h.allocPtr {
		return fmt.Errorf("watermark %d outside [0,%d]", h.watermark, h.allocPtr)
	}
	free := make(map[int64]bool, len(h.freeList))
	for _, idx := range h.freeList {
		if idx < 0 || idx >= int64(len(h.table)) {
			return fmt.Errorf("free-list index %d out of table range", idx)
		}
		if free[idx] {
			return fmt.Errorf("free-list index %d duplicated", idx)
		}
		free[idx] = true
	}
	type span struct{ lo, hi int }
	var spans []span
	for i := range h.table {
		e := &h.table[i]
		if e.Addr < 0 {
			if !free[int64(i)] {
				return fmt.Errorf("entry %d is free but not on the free list", i)
			}
			continue
		}
		if free[int64(i)] {
			return fmt.Errorf("entry %d is live but on the free list", i)
		}
		if e.Addr+e.Size > h.allocPtr {
			return fmt.Errorf("entry %d run [%d,%d) beyond allocPtr %d", i, e.Addr, e.Addr+e.Size, h.allocPtr)
		}
		if e.Gen == genYoung && e.Addr < h.watermark {
			return fmt.Errorf("young entry %d below watermark (%d < %d)", i, e.Addr, h.watermark)
		}
		if e.Gen == genOld && e.Addr >= h.watermark && e.Size > 0 {
			return fmt.Errorf("old entry %d above watermark (%d >= %d)", i, e.Addr, h.watermark)
		}
		spans = append(spans, span{e.Addr, e.Addr + e.Size})
	}
	slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("overlapping runs [%d,%d) and [%d,%d)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	// No live run may contain a dangling pointer word.
	for i := range h.table {
		if e := &h.table[i]; e.Addr >= 0 {
			if j, to, ok := h.danglingWord(h.arena[e.Addr : e.Addr+e.Size]); ok {
				return fmt.Errorf("entry %d word %d holds dangling pointer to %d", i, j, to)
			}
		}
	}
	// A shadow saves its whole block, and its words are as live as the
	// block's: a rollback copies them back.
	for lp := range h.levels {
		for _, s := range h.levels[lp].shadows {
			if !h.validLive(s.Idx) {
				return fmt.Errorf("shadow at level %d refers to free entry %d", lp+1, s.Idx)
			}
			if len(s.Words) != h.table[s.Idx].Size {
				return fmt.Errorf("shadow of entry %d at level %d holds %d words, block has %d", s.Idx, lp+1, len(s.Words), h.table[s.Idx].Size)
			}
			if j, to, ok := h.danglingWord(s.Words); ok {
				return fmt.Errorf("shadow of entry %d at level %d: word %d holds dangling pointer to %d", s.Idx, lp+1, j, to)
			}
		}
	}
	return nil
}

// danglingWord finds the first pointer word in words whose entry is free.
func (h *Heap) danglingWord(words []Value) (at int, to int64, ok bool) {
	for j, w := range words {
		if w.Kind == KPtr && w.I >= 0 && !h.validLive(w.I) {
			return j, w.I, true
		}
	}
	return 0, 0, false
}
