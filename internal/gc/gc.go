// Package gc provides the collection policy for the MCC runtime heap. The
// mechanism (generational mark-sweep with sliding compaction, §4 of the
// paper) lives in internal/heap because it manipulates the heap's
// representation invariants directly — the paper notes that "process
// migration and speculation are tightly integrated with the garbage
// collector". This package decides when to run a minor collection, when to
// escalate to a major one, and records policy-level statistics.
package gc

import "repro/internal/heap"

// Policy is a heap.Collector: minor-first generational collection with
// escalation to a major (full, compacting) collection when the minor phase
// does not recover enough space, plus a periodic forced major collection
// to bound fragmentation and drift. A minor escalates when used+need
// still exceeds heap.Headroom of the arena, the fraction the heap also
// sizes a grown arena by.
type Policy struct {
	// MajorEvery forces a major collection after this many consecutive
	// minors. Default 16. Zero disables the forcing.
	MajorEvery int

	minorsSinceMajor int
	stats            Stats
}

// Stats counts policy decisions.
type Stats struct {
	MinorRuns     uint64
	MajorRuns     uint64
	Escalations   uint64 // minor collections that escalated to major
	ForcedMajors  uint64 // majors forced by MajorEvery
	WordsRecycled uint64 // arena words recovered across all collections
}

// New returns a policy with default tuning.
func New() *Policy {
	return &Policy{MajorEvery: 16}
}

// Stats returns a copy of the policy counters.
func (p *Policy) Stats() Stats { return p.stats }

// Collect implements heap.Collector.
func (p *Policy) Collect(h *heap.Heap, need int) error {
	before := h.UsedWords()

	forced := p.MajorEvery > 0 && p.minorsSinceMajor >= p.MajorEvery
	if forced {
		h.CollectMajor()
		p.stats.MajorRuns++
		p.stats.ForcedMajors++
		p.minorsSinceMajor = 0
	} else {
		h.CollectMinor()
		p.stats.MinorRuns++
		p.minorsSinceMajor++
		if float64(h.UsedWords()+need) > heap.Headroom*float64(h.ArenaWords()) {
			h.CollectMajor()
			p.stats.MajorRuns++
			p.stats.Escalations++
			p.minorsSinceMajor = 0
		}
	}
	if after := h.UsedWords(); after < before {
		p.stats.WordsRecycled += uint64(before - after)
	}
	return nil
}
