package heap

import (
	"fmt"
	"slices"
)

// This file implements incremental snapshots: the heap tracks which
// pointer-table entries were dirtied (content written, cloned, level-moved,
// allocated or freed) since the last snapshot baseline and emits a
// DeltaSnapshot holding only those entries. A delta applied to its base
// with RebuildSnapshot reconstructs a Snapshot bit-identical to what a
// full Snapshot() at the same moment would have produced — the checkpoint
// pipeline (internal/ckpt) relies on this to write small incremental
// checkpoints on the hot path while recovery stays exact.
//
// Tracking is opt-in (Config.TrackDirty or EnableDeltaTracking): the
// bookkeeping is one map write per dirtying operation, which the default
// full-snapshot mode should not pay.

// DeltaSnapshot is the heap's change set since the previous snapshot
// baseline (the base a delta checkpoint names). Entries carry their full
// words — the unit of incrementality is the block, matching the paper's
// copy-on-write granularity — so applying a delta never needs the base
// block's bytes.
type DeltaSnapshot struct {
	// TableLen is the pointer-table size at capture time.
	TableLen int
	// Changed holds every live entry dirtied since the baseline (new
	// blocks and modified blocks alike), in index order.
	Changed []EntrySnap
	// Freed lists table indices that held a live entry at the baseline
	// and hold none now. Rebuilding ignores an index that was never live
	// in the base, so a hand-made delta may list one; SnapshotDelta does
	// not: a block allocated and freed within one interval leaves no
	// trace.
	Freed []int64
	// Levels is the complete speculation-level structure at capture time.
	// Levels are not diffed: they are small (shadows exist only for blocks
	// modified inside an open level) and their ordinal numbering shifts
	// whenever a level commits, so wholesale replacement is both cheaper
	// and simpler to prove correct.
	Levels []LevelSnap
}

// EnableDeltaTracking turns dirty-entry tracking on. It is idempotent.
// Tracking starts with no baseline: SnapshotDelta returns nil until a
// baseline is established with MarkSnapshotBase.
func (h *Heap) EnableDeltaTracking() {
	if h.dirty == nil {
		h.dirty = make(map[int64]struct{})
	}
}

// DeltaTracking reports whether dirty tracking is enabled.
func (h *Heap) DeltaTracking() bool { return h.dirty != nil }

// DeltaReady reports whether a snapshot baseline exists, i.e. whether
// SnapshotDelta would produce a usable delta.
func (h *Heap) DeltaReady() bool { return h.dirty != nil && h.hasBase }

// MarkSnapshotBase declares the heap's current state to be the snapshot
// baseline future deltas are relative to: the caller has just captured a
// full Snapshot it will retain (or persist) under a name deltas can refer
// to. The dirty set is cleared in place, not reallocated: across a run's
// delta chain the set's capacity is reused capture after capture.
func (h *Heap) MarkSnapshotBase() {
	h.EnableDeltaTracking()
	clear(h.dirty)
	h.baseLive = h.baseLive[:0]
	for i := range h.table {
		h.baseLive = append(h.baseLive, h.table[i].Addr >= 0)
	}
	h.levelsChanged = false
	h.hasBase = true
}

// dirtied records a table index as changed since the baseline. It is a
// no-op unless tracking is enabled.
func (h *Heap) dirtied(idx int64) {
	if h.dirty != nil {
		h.dirty[idx] = struct{}{}
	}
}

// SnapshotDelta captures the change set since the last baseline and makes
// the captured state the new baseline (deltas chain). It returns nil when
// tracking is disabled or no baseline exists — the caller must then fall
// back to a full Snapshot (and MarkSnapshotBase).
func (h *Heap) SnapshotDelta() *DeltaSnapshot {
	if !h.DeltaReady() {
		return nil
	}
	d := &DeltaSnapshot{TableLen: len(h.table)}

	// A committed or rolled-back level renumbers the ordinals every other
	// open level's entries snapshot as: conservatively re-emit every entry
	// currently owned by an open level. (Entries that LEFT speculation
	// ownership were dirtied explicitly by CommitLevel/RollbackLevel.)
	// The index list reuses per-heap scratch: delta captures recur every
	// checkpoint interval with similar change-set sizes, so the common
	// no-level-change path performs no per-capture bookkeeping allocation.
	idxs := h.deltaIdxScratch[:0]
	if h.levelsChanged {
		owned := make(map[int64]struct{}, len(h.dirty))
		for idx := range h.dirty {
			owned[idx] = struct{}{}
		}
		for i := range h.table {
			if h.table[i].Addr >= 0 && h.table[i].Level != 0 {
				owned[int64(i)] = struct{}{}
			}
		}
		for idx := range owned {
			idxs = append(idxs, idx)
		}
	} else {
		for idx := range h.dirty {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		if idx < 0 || idx >= int64(len(h.table)) {
			continue // the table never shrinks; this is unreachable, but stay safe
		}
		e := &h.table[idx]
		if e.Addr < 0 {
			if idx < int64(len(h.baseLive)) && h.baseLive[idx] {
				d.Freed = append(d.Freed, idx)
				h.baseLive[idx] = false
			}
			continue
		}
		words := make([]Value, e.Size)
		copy(words, h.arena[e.Addr:e.Addr+e.Size])
		d.Changed = append(d.Changed, EntrySnap{Idx: idx, Level: h.ordOf(e.Level), Words: words})
		for int64(len(h.baseLive)) <= idx {
			h.baseLive = append(h.baseLive, false)
		}
		h.baseLive[idx] = true
	}
	d.Levels = h.viewLevels(nil)
	for _, ls := range d.Levels {
		for j := range ls.Shadows {
			sh := &ls.Shadows[j]
			sh.Words = append(make([]Value, 0, len(sh.Words)), sh.Words...)
		}
	}

	// The captured state is the next baseline; scratch and the dirty set
	// keep their capacity for the next capture.
	h.deltaIdxScratch = idxs[:0]
	clear(h.dirty)
	h.levelsChanged = false
	return d
}

// RebuildSnapshot reconstructs the full Snapshot a delta chain describes:
// base, then each delta applied in order. The result is Equal to the full
// Snapshot captured at the moment the last delta was. The inputs are not
// mutated.
func RebuildSnapshot(base *Snapshot, deltas ...*DeltaSnapshot) (*Snapshot, error) {
	if base == nil {
		return nil, fmt.Errorf("heap: rebuild needs a base snapshot")
	}
	byIdx := make(map[int64]EntrySnap, len(base.Entries))
	for _, e := range base.Entries {
		byIdx[e.Idx] = e
	}
	out := &Snapshot{TableLen: base.TableLen, Levels: base.Levels}
	for di, d := range deltas {
		if d == nil {
			return nil, fmt.Errorf("heap: rebuild delta %d is nil", di)
		}
		if d.TableLen < out.TableLen {
			return nil, fmt.Errorf("heap: rebuild delta %d shrinks the table (%d < %d)", di, d.TableLen, out.TableLen)
		}
		for _, idx := range d.Freed {
			delete(byIdx, idx)
		}
		for _, e := range d.Changed {
			if e.Idx < 0 || e.Idx >= int64(d.TableLen) {
				return nil, fmt.Errorf("heap: rebuild delta %d entry index %d outside table of %d", di, e.Idx, d.TableLen)
			}
			byIdx[e.Idx] = e
		}
		out.TableLen = d.TableLen
		out.Levels = d.Levels
	}
	out.Entries = make([]EntrySnap, 0, len(byIdx))
	for _, e := range byIdx {
		out.Entries = append(out.Entries, e)
	}
	slices.SortFunc(out.Entries, func(a, b EntrySnap) int {
		switch {
		case a.Idx < b.Idx:
			return -1
		case a.Idx > b.Idx:
			return 1
		}
		return 0
	})
	return out, nil
}
