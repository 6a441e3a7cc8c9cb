// Package spec implements the speculation manager: the runtime half of the
// speculate/commit/rollback primitives (§4.3). The heap provides the
// block-level copy-on-write machinery; this package owns the level
// lifecycle — saved continuations, stable speculation IDs, out-of-order
// commit bookkeeping, and the retry semantics of rollback ("level l is
// automatically re-entered after it has been rolled back").
package spec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/heap"
)

// Errors returned by the manager.
var (
	ErrNoLevels  = errors.New("spec: no speculation in progress")
	ErrBadLevel  = errors.New("spec: no such speculation level")
	ErrUnknownID = errors.New("spec: unknown speculation id")
)

// Continuation is the saved re-entry point of a speculation level: the
// function-table index of the continuation f passed to speculate, and the
// original arguments a_1..a_n (excluding the status integer c, which is
// supplied fresh on every entry).
type Continuation struct {
	FnIndex int64
	Args    []heap.Value
}

// Stats is a point-in-time copy of the speculation counters.
type Stats struct {
	Enters    uint64
	Commits   uint64
	Rollbacks uint64
	// LevelsDiscarded counts inner levels destroyed because an outer level
	// rolled back past them.
	LevelsDiscarded uint64
	MaxDepth        int
}

// Observer receives speculation lifecycle callbacks, invoked on the
// process's own goroutine immediately after each transition. The fields
// are plain funcs (any of which may be nil) so the tracing layer can
// hook in without this package depending on it. Callbacks must be cheap:
// they run on the execution hot path.
type Observer struct {
	Enter    func(ordinal int, id int64)
	Commit   func(ordinal int, id int64)
	Rollback func(ordinal int, id int64, discarded int)
}

// Manager tracks the speculation level stack for one process. Levels are
// addressed two ways: by 1-based ordinal (the paper's l ∈ {1..N}, which
// shifts when a lower level commits) and by stable ID (what the C-level
// specid holds; IDs survive renumbering).
//
// All execution-path methods are single-goroutine (the owning process
// driver), but Stats() may be called concurrently by metrics scrapes, so
// the counters are atomics — the same discipline msg.Router uses.
type Manager struct {
	h     *heap.Heap
	conts []Continuation // parallel to the heap's level stack
	ids   []int64        // stable IDs, parallel to conts
	next  int64
	obs   Observer

	enters          atomic.Uint64
	commits         atomic.Uint64
	rollbacks       atomic.Uint64
	levelsDiscarded atomic.Uint64
	maxDepth        atomic.Int64
}

// New creates a manager bound to a heap and registers the saved
// continuation arguments as GC roots (a rollback may be the only remaining
// path to blocks referenced solely by a saved continuation).
func New(h *heap.Heap) *Manager {
	m := &Manager{h: h, next: 1}
	h.AddRoots(func(yield func(heap.Value)) {
		for _, c := range m.conts {
			for _, v := range c.Args {
				yield(v)
			}
		}
	})
	return m
}

// Stats returns a copy of the counters. Safe to call from any goroutine
// while the owning process is running.
func (m *Manager) Stats() Stats {
	return Stats{
		Enters:          m.enters.Load(),
		Commits:         m.commits.Load(),
		Rollbacks:       m.rollbacks.Load(),
		LevelsDiscarded: m.levelsDiscarded.Load(),
		MaxDepth:        int(m.maxDepth.Load()),
	}
}

// SetObserver installs lifecycle callbacks. Must be called before the
// owning process starts executing (it is not synchronized against the
// execution path).
func (m *Manager) SetObserver(o Observer) { m.obs = o }

// Depth returns the number of open levels (the paper's N).
func (m *Manager) Depth() int { return len(m.conts) }

// Enter starts a new speculation level with the given continuation and
// returns its ordinal (= new depth) and stable ID.
func (m *Manager) Enter(c Continuation) (ordinal int, id int64) {
	ordinal = m.h.EnterLevel()
	id = m.next
	m.next++
	m.conts = append(m.conts, c)
	m.ids = append(m.ids, id)
	m.enters.Add(1)
	if d := int64(len(m.conts)); d > m.maxDepth.Load() {
		m.maxDepth.Store(d)
	}
	if ordinal != len(m.conts) {
		// The heap's level stack and ours move in lockstep; disagreement
		// means the heap was driven directly behind the manager's back.
		panic(fmt.Sprintf("spec: level stacks diverged (heap %d, manager %d)", ordinal, len(m.conts)))
	}
	if m.obs.Enter != nil {
		m.obs.Enter(ordinal, id)
	}
	return ordinal, id
}

// OrdinalOf resolves a stable speculation ID to its current ordinal.
func (m *Manager) OrdinalOf(id int64) (int, error) {
	for i, v := range m.ids {
		if v == id {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("%w: %d", ErrUnknownID, id)
}

// IDAt returns the stable ID of the level with the given ordinal.
func (m *Manager) IDAt(ordinal int) (int64, error) {
	if ordinal < 1 || ordinal > len(m.ids) {
		return 0, fmt.Errorf("%w: %d (depth %d)", ErrBadLevel, ordinal, len(m.ids))
	}
	return m.ids[ordinal-1], nil
}

// CurrentID returns the stable ID of the innermost level.
func (m *Manager) CurrentID() (int64, error) {
	if len(m.ids) == 0 {
		return 0, ErrNoLevels
	}
	return m.ids[len(m.ids)-1], nil
}

// Commit folds level `ordinal` into the level below it (§4.3.1: "commits
// for speculations can occur out of order"). The level's saved continuation
// is discarded; higher levels shift down one ordinal.
func (m *Manager) Commit(ordinal int) error {
	if ordinal < 1 || ordinal > len(m.conts) {
		return fmt.Errorf("%w: commit %d (depth %d)", ErrBadLevel, ordinal, len(m.conts))
	}
	if err := m.h.CommitLevel(ordinal); err != nil {
		return err
	}
	i := ordinal - 1
	id := m.ids[i]
	m.conts = append(m.conts[:i], m.conts[i+1:]...)
	m.ids = append(m.ids[:i], m.ids[i+1:]...)
	m.commits.Add(1)
	if m.obs.Commit != nil {
		m.obs.Commit(ordinal, id)
	}
	return nil
}

// Rollback reverts every change made in level `ordinal` and all later
// levels, re-enters the level (retry semantics) preserving its stable ID,
// and returns the saved continuation to re-invoke with the new value of c.
func (m *Manager) Rollback(ordinal int) (Continuation, error) {
	if ordinal < 1 || ordinal > len(m.conts) {
		return Continuation{}, fmt.Errorf("%w: rollback %d (depth %d)", ErrBadLevel, ordinal, len(m.conts))
	}
	discarded := len(m.conts) - ordinal
	if err := m.h.RollbackLevel(ordinal); err != nil {
		return Continuation{}, err
	}
	cont := m.conts[ordinal-1]
	id := m.ids[ordinal-1]
	m.conts = m.conts[:ordinal-1]
	m.ids = m.ids[:ordinal-1]
	// Automatic re-entry: the state captured and restored is the state
	// immediately after level l was entered.
	reOrd := m.h.EnterLevel()
	m.conts = append(m.conts, cont)
	m.ids = append(m.ids, id)
	if reOrd != ordinal {
		panic(fmt.Sprintf("spec: re-entered level has ordinal %d, want %d", reOrd, ordinal))
	}
	m.rollbacks.Add(1)
	m.levelsDiscarded.Add(uint64(discarded))
	if m.obs.Rollback != nil {
		m.obs.Rollback(ordinal, id, discarded)
	}
	return cont, nil
}

// Snapshot captures the continuation stack for migration (IDs are
// reassigned on restore; ordinals are preserved).
func (m *Manager) Snapshot() []Continuation {
	out := make([]Continuation, len(m.conts))
	for i, c := range m.conts {
		args := make([]heap.Value, len(c.Args))
		copy(args, c.Args)
		out[i] = Continuation{FnIndex: c.FnIndex, Args: args}
	}
	return out
}

// RestoreStack reinstalls a continuation stack on a manager whose heap was
// rebuilt from a snapshot containing the matching number of open levels.
func (m *Manager) RestoreStack(conts []Continuation) error {
	if m.h.LevelCount() != len(conts) {
		return fmt.Errorf("spec: heap has %d levels, continuation stack has %d", m.h.LevelCount(), len(conts))
	}
	if len(m.conts) != 0 {
		return errors.New("spec: RestoreStack on a manager with open levels")
	}
	m.conts = append(m.conts, conts...)
	for range conts {
		m.ids = append(m.ids, m.next)
		m.next++
	}
	return nil
}
