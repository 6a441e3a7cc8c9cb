package heap

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Generation tags for the generational collector.
const (
	genYoung uint8 = 0
	genOld   uint8 = 1
)

// Errors reported by the runtime safety checks (§4.1.1). These are the
// checks the compiler promises: a process can never read or write outside a
// valid block, use a freed table entry, or treat a word as the wrong type.
var (
	ErrNotPointer   = errors.New("heap: value is not a pointer")
	ErrNullPointer  = errors.New("heap: null pointer dereference")
	ErrBadIndex     = errors.New("heap: pointer-table index out of range")
	ErrFreeEntry    = errors.New("heap: pointer refers to a free table entry")
	ErrBounds       = errors.New("heap: offset outside block bounds")
	ErrBadStore     = errors.New("heap: unit is not a storable value")
	ErrOutOfMemory  = errors.New("heap: out of memory")
	ErrBadLevel     = errors.New("heap: no such speculation level")
	ErrNoSpec       = errors.New("heap: no speculation in progress")
	ErrBadAllocSize = errors.New("heap: invalid allocation size")
	ErrReleased     = errors.New("heap: heap was released")
)

// Collector is the policy hook invoked when an allocation cannot be
// satisfied. Implementations (internal/gc) decide whether to run a minor or
// major collection using the mechanism methods CollectMinor/CollectMajor.
// need is the number of words the failed allocation requires.
type Collector interface {
	Collect(h *Heap, need int) error
}

// Config configures a heap instance.
type Config struct {
	// InitialWords is the starting arena size in words (default 4096, or
	// MaxWords when that is smaller). The arena grows on demand up to
	// MaxWords, each time to at least twice its size and to at most
	// Headroom full. Arenas come from a process-wide pool that Release
	// refills, so a heap whose process has ended hands its arena, grown
	// or not, to the next one: the size decides how many regrowths a
	// working heap pays for, not how much memory a short-lived one
	// allocates. At the benchmark's shapes the grid's and kvserve's node
	// heaps outgrew 1024 words at once, on every start and every restore.
	InitialWords int
	// MaxWords caps arena growth (default 1<<24 words).
	MaxWords int
	// TrackDirty enables dirty-entry tracking from birth so the heap can
	// emit incremental DeltaSnapshots (see delta.go). Off by default: the
	// bookkeeping costs one map write per dirtying operation.
	TrackDirty bool
}

func (c Config) withDefaults() Config {
	if c.InitialWords <= 0 {
		c.InitialWords = 4096
		if c.MaxWords > 0 && c.MaxWords < c.InitialWords {
			c.InitialWords = c.MaxWords
		}
	}
	if c.MaxWords <= 0 {
		c.MaxWords = 1 << 24
	}
	if c.MaxWords < c.InitialWords {
		c.MaxWords = c.InitialWords
	}
	return c
}

// Headroom is the fullest fraction of the arena the heap aims to run at
// once it has collected: the collection policy escalates to a major
// collection above it, and a grown arena holds what it must at no more
// than this fraction of its size.
const Headroom = 0.85

// grownWords returns the arena size for a heap of cur words that must hold
// want: twice the current size, or enough that want fills at most
// Headroom of it when that is more, capped at maxWords. Sizing only by
// doubling can land a block-sized request on an exactly full arena, which
// the next few words then collect in vain and double again.
func grownWords(cur, want, maxWords int) int {
	return min(max(2*cur, int(math.Ceil(float64(want)/Headroom))), maxWords)
}

// entry is a pointer-table entry: the block header of §4.1.1. Addr is the
// word offset of the block's current copy in the arena (-1 when the slot is
// free). Level is the ID of the speculation level that created the current
// copy (0 = committed state). Version increments whenever the slot is
// freed, protecting stale index references held by speculation bookkeeping.
type entry struct {
	Addr    int
	Size    int
	Gen     uint8
	Mark    bool
	Level   int64
	Version uint32
	Seq     uint64
}

// Shadow is a checkpoint record (§4.1): it preserves the pre-modification
// words of a block that copy-on-write saved inside a speculation level.
// The block itself stays where it is and takes the level's writes in
// place; Words, a buffer off the arena, holds its contents at the first
// write, and OldLevel the level that owned it then, so rollback can copy
// them back.
type Shadow struct {
	Idx      int64
	Words    []Value
	OldLevel int64
	buf      *[]Value // Words' pooled backing, handed back by dropShadow
}

// wordPool recycles word buffers across every heap in the process: node
// heaps are short-lived, and a run kills, migrates and restores them over
// and over. It is the object cache of Bonwick's slab allocator (USENIX
// Summer 1994) for whole heaps: shadowPool holds the saved words a
// checkpointing loop takes level after level, arenaPool the arenas of
// heaps whose process has ended. It holds *[]Value, so a give boxes
// nothing.
type wordPool struct{ p sync.Pool }

var shadowPool, arenaPool wordPool

// take returns a buffer of n words: a pooled one when its capacity
// allows, its words left as their last holder wrote them, else a fresh
// one. A pooled buffer too small is left to the Go collector rather than
// put back, so one that is always too small cannot sit in the pool's
// per-P slot and miss every request: the pool drifts towards the sizes
// asked for.
func (wp *wordPool) take(n int) *[]Value {
	b, _ := wp.p.Get().(*[]Value)
	if b == nil {
		b = new([]Value)
	}
	if cap(*b) < n {
		*b = make([]Value, n)
	}
	*b = (*b)[:n]
	return b
}

// give hands b to the next take; its holder must not touch it again.
func (wp *wordPool) give(b *[]Value) { wp.p.Put(b) }

// newShadow saves a copy of words in a pooled buffer.
func newShadow(idx int64, words []Value, oldLevel int64) Shadow {
	b := shadowPool.take(len(words))
	copy(*b, words)
	return Shadow{Idx: idx, Words: *b, OldLevel: oldLevel, buf: b}
}

// dropShadow returns a shadow's buffer to the pool.
func dropShadow(s *Shadow) {
	shadowPool.give(s.buf)
	s.Words, s.buf = nil, nil
}

// ref is a versioned reference to a table slot, immune to slot reuse.
type ref struct {
	idx int64
	ver uint32
}

// level is one speculation level's heap-side state: its checkpoint records,
// the blocks allocated while it was the current level, and the set of
// blocks whose current copy it owns.
type level struct {
	id      int64
	shadows []Shadow
	allocs  []ref
	owned   []ref
}

// Stats counts heap activity for the benchmark harness.
type Stats struct {
	Allocs          uint64 // blocks allocated
	AllocWords      uint64 // arena words allocated by Alloc (a clone's saved words count in CloneWords)
	Clones          uint64 // copy-on-write clones
	CloneWords      uint64
	MinorGCs        uint64
	MajorGCs        uint64
	WordsMoved      uint64 // words moved by compaction
	EntriesFreed    uint64
	Grows           uint64
	ShadowsCreated  uint64
	ShadowsRestored uint64
	ShadowsDropped  uint64
}

// Heap is a runtime heap instance: one per process context.
type Heap struct {
	cfg       Config
	arena     []Value  // (*buf)[:size]: growth within its capacity reslices
	buf       *[]Value // the arena's pooled backing; nil once released
	allocPtr  int
	watermark int // start of the young region; everything below is old gen
	table     []entry
	freeList  []int64
	levels    []level
	nextLevel int64
	seq       uint64

	remembered map[int64]bool // old entries that may hold young pointers

	// Incremental-snapshot state (delta.go). dirty is nil when tracking is
	// off; levelsChanged notes an ordinal-shifting level commit since the
	// baseline; hasBase notes that a baseline snapshot exists; baseLive
	// marks the table indices live at the baseline (shorter than the
	// table when it has grown since). deltaIdxScratch is reused across
	// SnapshotDelta captures.
	dirty           map[int64]struct{}
	levelsChanged   bool
	hasBase         bool
	baseLive        []bool
	deltaIdxScratch []int64

	// runsScratch and markScratch are reused across collections (the run
	// list by liveRuns, the mark stack by the mark phases); both are
	// consumed within the same collection, never retained.
	runsScratch []run
	markScratch []int64
	// markRootMajor/Minor are the persistent root callbacks the mark phases
	// hand to gatherRoots, built once in New so collections allocate no
	// closures.
	markRootMajor func(Value)
	markRootMinor func(Value)

	// levelPool recycles the slice backing of removed speculation levels:
	// a checkpointing loop enters and commits one level per interval, and
	// without reuse every level regrows its shadow/alloc/owned lists from
	// scratch. Pooled levels hold zero-length slices with retained capacity.
	levelPool []level

	collector Collector
	roots     []func(yield func(Value))

	stats Stats
}

// New creates a heap with the given configuration.
func New(cfg Config) *Heap {
	cfg = cfg.withDefaults()
	h := &Heap{
		cfg:        cfg,
		buf:        arenaPool.take(cfg.InitialWords),
		nextLevel:  1,
		remembered: make(map[int64]bool),
		// Pre-size the pointer table and its free list: short-lived heaps
		// (one per node per run) otherwise spend a handful of allocations
		// each just growing these from nil.
		table:    make([]entry, 0, 64),
		freeList: make([]int64, 0, 64),
	}
	h.arena = *h.buf
	if cfg.TrackDirty {
		h.EnableDeltaTracking()
	}
	h.markRootMajor = func(v Value) {
		if v.Kind == KPtr && v.I >= 0 {
			h.markFrom(v.I, false)
		}
	}
	h.markRootMinor = func(v Value) {
		if v.Kind == KPtr && v.I >= 0 {
			h.markFrom(v.I, true)
		}
	}
	return h
}

// SetCollector installs the collection policy invoked on allocation
// pressure. A nil collector means the heap only ever grows.
func (h *Heap) SetCollector(c Collector) { h.collector = c }

// AddRoots registers a root provider. Collections call every provider and
// treat each yielded value as a GC root. The VM registers its live
// registers; the speculation manager registers saved continuation
// arguments.
func (h *Heap) AddRoots(fn func(yield func(Value))) {
	h.roots = append(h.roots, fn)
}

// Stats returns a copy of the activity counters.
func (h *Heap) Stats() Stats { return h.stats }

// ArenaWords returns the arena's size in words: 0 once released.
func (h *Heap) ArenaWords() int { return len(h.arena) }

// UsedWords returns the number of arena words currently allocated
// (including garbage not yet collected).
func (h *Heap) UsedWords() int { return h.allocPtr }

// TableLen returns the pointer-table size (§4.1.1: indices are validated
// against this bound on every dereference).
func (h *Heap) TableLen() int { return len(h.table) }

// LiveBlocks returns the number of non-free pointer-table entries.
func (h *Heap) LiveBlocks() int { return len(h.table) - len(h.freeList) }

// curLevelID returns the ID of the innermost speculation level, or 0 when
// no speculation is active.
func (h *Heap) curLevelID() int64 {
	if len(h.levels) == 0 {
		return 0
	}
	return h.levels[len(h.levels)-1].id
}

// LevelCount returns the number of open speculation levels (the paper's N).
func (h *Heap) LevelCount() int { return len(h.levels) }

// Alloc allocates a block of size words, zero-initialized to integer 0,
// and returns a pointer value to it. The block is tagged with the current
// speculation level: blocks allocated inside a level vanish when the level
// rolls back.
func (h *Heap) Alloc(size int64) (Value, error) {
	if size < 0 {
		return Value{}, fmt.Errorf("%w: %d", ErrBadAllocSize, size)
	}
	if size > int64(h.cfg.MaxWords) {
		return Value{}, fmt.Errorf("%w: block of %d words exceeds cap %d", ErrOutOfMemory, size, h.cfg.MaxWords)
	}
	addr, err := h.allocRun(int(size))
	if err != nil {
		return Value{}, err
	}
	zero := IntVal(0)
	for i := 0; i < int(size); i++ {
		h.arena[addr+i] = zero
	}
	idx := h.allocEntry()
	h.seq++
	e := &h.table[idx]
	e.Addr = addr
	e.Size = int(size)
	e.Gen = genYoung
	e.Level = h.curLevelID()
	e.Seq = h.seq
	if n := len(h.levels); n > 0 {
		lv := &h.levels[n-1]
		lv.allocs = append(lv.allocs, ref{idx: idx, ver: e.Version})
		lv.owned = append(lv.owned, ref{idx: idx, ver: e.Version})
	}
	h.stats.Allocs++
	h.stats.AllocWords += uint64(size)
	h.dirtied(idx)
	return PtrVal(idx, 0), nil
}

// allocRun reserves size words at the arena tail, collecting or growing as
// needed.
func (h *Heap) allocRun(size int) (int, error) {
	if h.buf == nil {
		return 0, ErrReleased
	}
	want := h.allocPtr + size
	if want > len(h.arena) {
		if h.collector != nil {
			if err := h.collector.Collect(h, size); err != nil {
				return 0, err
			}
			want = h.allocPtr + size
		}
		if want > len(h.arena) {
			// Still no room after collecting: grow once, with headroom.
			if want > h.cfg.MaxWords {
				return 0, fmt.Errorf("%w: need %d words, cap %d", ErrOutOfMemory, want, h.cfg.MaxWords)
			}
			// Within the backing's capacity the arena only reslices; a
			// larger one replaces it, and no View outlives an allocation.
			n := grownWords(len(h.arena), want, h.cfg.MaxWords)
			if n > cap(*h.buf) {
				nb := arenaPool.take(n)
				copy(*nb, h.arena[:h.allocPtr])
				arenaPool.give(h.buf)
				h.buf = nb
			}
			h.arena = (*h.buf)[:n]
			h.stats.Grows++
		}
	}
	a := h.allocPtr
	h.allocPtr = want
	return a, nil
}

// Release gives the heap's arena to the next heap New, growth or Restore
// takes from the process-wide pool, and the saved words of its open
// levels to the shadow pool. The heap is left with no arena, no pointer
// table and no levels, so no later access can read memory another heap
// now owns: Load and Store fail with ErrBadIndex, Alloc with
// ErrReleased, level operations with ErrBadLevel. No View of the heap
// may be in use; releasing twice does nothing.
func (h *Heap) Release() {
	if h.buf == nil {
		return
	}
	for i := range h.levels {
		for j := range h.levels[i].shadows {
			dropShadow(&h.levels[i].shadows[j])
		}
	}
	arenaPool.give(h.buf)
	h.buf, h.arena, h.table, h.freeList, h.levels = nil, nil, nil, nil, nil
	h.allocPtr, h.watermark = 0, 0
}

// allocEntry takes a pointer-table slot from the free list or extends the
// table.
func (h *Heap) allocEntry() int64 {
	if n := len(h.freeList); n > 0 {
		idx := h.freeList[n-1]
		h.freeList = h.freeList[:n-1]
		return idx
	}
	h.table = append(h.table, entry{Addr: -1})
	return int64(len(h.table) - 1)
}

// freeEntry releases a table slot and bumps its version so stale refs are
// detectable.
func (h *Heap) freeEntry(idx int64) {
	e := &h.table[idx]
	e.Addr = -1
	e.Size = 0
	e.Mark = false
	e.Level = 0
	e.Version++
	h.freeList = append(h.freeList, idx)
	delete(h.remembered, idx)
	h.dirtied(idx)
	h.stats.EntriesFreed++
}

// check validates a pointer value and an effective offset against the
// pointer table, returning the entry index. These are the per-access
// safety checks of §4.1.1.
func (h *Heap) check(ptr Value, off int64) (int64, error) {
	if ptr.Kind != KPtr {
		return 0, fmt.Errorf("%w: %s", ErrNotPointer, ptr)
	}
	if ptr.I < 0 {
		return 0, ErrNullPointer
	}
	if ptr.I >= int64(len(h.table)) {
		return 0, fmt.Errorf("%w: %d >= %d", ErrBadIndex, ptr.I, len(h.table))
	}
	e := &h.table[ptr.I]
	if e.Addr < 0 {
		return 0, fmt.Errorf("%w: index %d", ErrFreeEntry, ptr.I)
	}
	eff := ptr.Off + off
	if eff < 0 || eff >= int64(e.Size) {
		return 0, fmt.Errorf("%w: offset %d, block size %d (index %d)", ErrBounds, eff, e.Size, ptr.I)
	}
	return ptr.I, nil
}

// Load reads the word at ptr.Off+off in the block ptr refers to.
func (h *Heap) Load(ptr Value, off int64) (Value, error) {
	idx, err := h.check(ptr, off)
	if err != nil {
		return Value{}, err
	}
	e := &h.table[idx]
	return h.arena[e.Addr+int(ptr.Off+off)], nil
}

// TryLoad is Load's inlinable fast path: it reports ok=false, and reads
// nothing, wherever Load would fail; call Load then for the error. A free
// entry has Size 0 (allocEntry, freeEntry and Restore all leave it so),
// so the bounds test rejects it too.
func (h *Heap) TryLoad(ptr Value, off int64) (v Value, ok bool) {
	if ptr.Kind != KPtr || uint64(ptr.I) >= uint64(len(h.table)) {
		return Value{}, false
	}
	e := &h.table[ptr.I]
	eff := ptr.Off + off
	if uint64(eff) >= uint64(e.Size) {
		return Value{}, false
	}
	return h.arena[e.Addr+int(eff)], true
}

// TryStore is Store's fast path for its common case: an int or float word
// stored into a block the current speculation level already owns, with
// delta tracking off. It reports false, and writes nothing, wherever Store
// would fail or has more to do — a copy-on-write save, a remembered-set
// entry for a pointer, a dirty mark; call Store then.
func (h *Heap) TryStore(ptr Value, off int64, v Value) bool {
	if ptr.Kind != KPtr || uint64(ptr.I) >= uint64(len(h.table)) || v.Kind != KInt && v.Kind != KFloat || h.dirty != nil {
		return false
	}
	e := &h.table[ptr.I]
	eff := ptr.Off + off
	if uint64(eff) >= uint64(e.Size) || e.Level < h.curLevelID() {
		return false
	}
	h.arena[e.Addr+int(eff)] = v
	return true
}

// Store writes v at ptr.Off+off in the block ptr refers to, applying
// copy-on-write when the block's current copy belongs to an older
// speculation level (§4.3: "when a block in the heap is modified, the block
// is cloned"). The copy kept is the old one, in the level's shadow; the
// write lands in place, so a store never allocates arena words and never
// collects.
func (h *Heap) Store(ptr Value, off int64, v Value) error {
	idx, err := h.check(ptr, off)
	if err != nil {
		return err
	}
	if v.Kind == KUnit {
		return ErrBadStore
	}
	e := &h.table[idx]
	if e.Level < h.curLevelID() {
		h.cowClone(idx)
	}
	// Generational write barrier: an old block may now reference a young
	// one; remember it so minor collections can find the young block.
	if v.Kind == KPtr && v.I >= 0 && e.Gen == genOld {
		h.remembered[idx] = true
	}
	h.arena[e.Addr+int(ptr.Off+off)] = v
	h.dirtied(idx)
	return nil
}

// cowClone hands entry idx to the current speculation level, saving the
// block's words in a checkpoint record (shadow) for rollback. The block
// keeps its address and generation.
func (h *Heap) cowClone(idx int64) {
	e := &h.table[idx]
	lv := &h.levels[len(h.levels)-1]
	lv.shadows = append(lv.shadows, newShadow(idx, h.arena[e.Addr:e.Addr+e.Size], e.Level))
	lv.owned = append(lv.owned, ref{idx: idx, ver: e.Version})
	e.Level = lv.id
	h.stats.Clones++
	h.stats.CloneWords += uint64(e.Size)
	h.stats.ShadowsCreated++
}

// BlockSize returns the size in words of the block ptr refers to.
func (h *Heap) BlockSize(ptr Value) (int64, error) {
	if ptr.Kind != KPtr {
		return 0, fmt.Errorf("%w: %s", ErrNotPointer, ptr)
	}
	if ptr.I < 0 {
		return 0, ErrNullPointer
	}
	if ptr.I >= int64(len(h.table)) {
		return 0, fmt.Errorf("%w: %d >= %d", ErrBadIndex, ptr.I, len(h.table))
	}
	e := &h.table[ptr.I]
	if e.Addr < 0 {
		return 0, fmt.Errorf("%w: index %d", ErrFreeEntry, ptr.I)
	}
	return int64(e.Size), nil
}

// EnterLevel starts a new speculation level nested inside the current one
// and returns its ordinal (1-based; the paper numbers levels 1..N).
func (h *Heap) EnterLevel() int {
	id := h.nextLevel
	h.nextLevel++
	lv := level{id: id}
	if n := len(h.levelPool); n > 0 {
		p := h.levelPool[n-1]
		h.levelPool = h.levelPool[:n-1]
		lv.shadows, lv.allocs, lv.owned = p.shadows, p.allocs, p.owned
	} else {
		// Pre-size the ref slices so a fresh level doesn't pay the
		// append-doubling ladder on its first few allocations.
		lv.allocs = make([]ref, 0, 16)
		lv.owned = make([]ref, 0, 16)
	}
	h.levels = append(h.levels, lv)
	return len(h.levels)
}

// recycleLevel returns a removed level's slice backing to the pool. The
// caller must have copied out (or abandoned) the contents already.
func (h *Heap) recycleLevel(lv level) {
	if len(h.levelPool) >= 8 {
		return
	}
	clear(lv.shadows) // buffers a commit moved to the level below
	h.levelPool = append(h.levelPool, level{
		shadows: lv.shadows[:0], allocs: lv.allocs[:0], owned: lv.owned[:0],
	})
}

// ordinalToPos validates a 1-based level ordinal.
func (h *Heap) ordinalToPos(n int) (int, error) {
	if n < 1 || n > len(h.levels) {
		return 0, fmt.Errorf("%w: %d (have %d levels)", ErrBadLevel, n, len(h.levels))
	}
	return n - 1, nil
}

// CommitLevel commits level n (1-based ordinal), folding all changes from
// that level into the level below it (§4.3.1). Commits may occur out of
// order: n need not be the innermost level.
func (h *Heap) CommitLevel(n int) error {
	pos, err := h.ordinalToPos(n)
	if err != nil {
		return err
	}
	lv := h.levels[pos]
	if pos == 0 {
		// Fold into committed state (level 0): the speculation's changes
		// become permanent and the saved words are dropped.
		for i := range lv.shadows {
			dropShadow(&lv.shadows[i])
			h.stats.ShadowsDropped++
		}
		for _, r := range lv.owned {
			if h.refValid(r) && h.table[r.idx].Level == lv.id {
				h.table[r.idx].Level = 0
				h.dirtied(r.idx)
			}
		}
	} else {
		below := &h.levels[pos-1]
		// An entry already shadowed by the level below keeps that (older)
		// shadow; this level's shadow preserved state-at-entry-of-n, which
		// is no longer a rollback point once n commits.
		shadowed := make(map[int64]bool, len(below.shadows))
		for _, s := range below.shadows {
			shadowed[s.Idx] = true
		}
		for i, s := range lv.shadows {
			if shadowed[s.Idx] {
				dropShadow(&lv.shadows[i])
				h.stats.ShadowsDropped++
				continue
			}
			below.shadows = append(below.shadows, s)
			shadowed[s.Idx] = true
		}
		for _, r := range lv.owned {
			if h.refValid(r) && h.table[r.idx].Level == lv.id {
				h.table[r.idx].Level = below.id
				h.dirtied(r.idx)
			}
		}
		below.allocs = append(below.allocs, lv.allocs...)
		below.owned = append(below.owned, lv.owned...)
	}
	if pos != len(h.levels)-1 {
		// Removing a non-innermost level shifts the ordinals of every level
		// above it, and with them the snapshot Level of entries those levels
		// own; the next delta must re-emit them (see SnapshotDelta).
		h.levelsChanged = true
	}
	h.levels = append(h.levels[:pos], h.levels[pos+1:]...)
	h.recycleLevel(lv)
	return nil
}

// RollbackLevel reverts every change made in level n (1-based ordinal) and
// all later levels, restoring the heap to its state at entry into level n.
// The level stack is left at n-1 levels; the caller (the speculation
// manager) re-enters the level to implement the paper's retry semantics.
func (h *Heap) RollbackLevel(n int) error {
	pos, err := h.ordinalToPos(n)
	if err != nil {
		return err
	}
	for p := len(h.levels) - 1; p >= pos; p-- {
		lv := &h.levels[p]
		// Restore shadows in reverse creation order.
		for i := len(lv.shadows) - 1; i >= 0; i-- {
			s := &lv.shadows[i]
			e := &h.table[s.Idx]
			copy(h.arena[e.Addr:e.Addr+e.Size], s.Words)
			e.Level = s.OldLevel
			if e.Gen == genOld {
				// The restored words may point at young blocks that only
				// the shadow's scan kept alive.
				h.remembered[s.Idx] = true
			}
			dropShadow(s)
			h.dirtied(s.Idx)
			h.stats.ShadowsRestored++
		}
		// Blocks allocated inside the level never existed at the rollback
		// point: free their table entries.
		for i := len(lv.allocs) - 1; i >= 0; i-- {
			r := lv.allocs[i]
			if h.refValid(r) {
				h.freeEntry(r.idx)
			}
		}
	}
	for p := len(h.levels) - 1; p >= pos; p-- {
		h.recycleLevel(h.levels[p])
	}
	h.levels = h.levels[:pos]
	return nil
}

// refValid reports whether a versioned slot reference still refers to the
// same allocation (the slot may have been freed and reused by the GC).
func (h *Heap) refValid(r ref) bool {
	return r.idx >= 0 && r.idx < int64(len(h.table)) &&
		h.table[r.idx].Version == r.ver && h.table[r.idx].Addr >= 0
}

// MutateFraction returns the fraction of live blocks whose current copy is
// owned by an open speculation level — the paper's "mutation percentile of
// the heap during the life of the speculation" (§5).
func (h *Heap) MutateFraction() float64 {
	live := h.LiveBlocks()
	if live == 0 {
		return 0
	}
	owned := 0
	for i := range h.table {
		if h.table[i].Addr >= 0 && h.table[i].Level != 0 {
			owned++
		}
	}
	return float64(owned) / float64(live)
}
