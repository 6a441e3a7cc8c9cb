// Package memo is the bounded memo table behind the runtime's "compile
// once" caches: workload programs (internal/workload), engine artifacts
// (internal/engine), and the decoded programs and type-check verdicts of
// the restore path (internal/migrate).
package memo

import "sync"

// Table maps keys to values computed on first use. It keeps at most its
// bound of them, evicting in insertion order, and is safe for concurrent
// use.
type Table[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	// m holds the kept entries and those still being filled; order lists
	// the kept ones, oldest first. Only a kept entry counts against max
	// or can be evicted.
	m     map[K]*entry[V]
	order []K

	hits, misses, evicts uint64
}

type entry[V any] struct {
	once sync.Once
	v    V
	err  error
	kept bool // filled without error; guarded by Table.mu
}

// Stats are a table's counters.
type Stats struct {
	Hits, Misses, Evicts uint64
	Entries              int
}

// New returns a table bounded to max entries.
func New[K comparable, V any](max int) *Table[K, V] {
	return &Table[K, V]{max: max, m: make(map[K]*entry[V])}
}

// Do returns the value under key, calling fill to compute it when the
// table has none. Callers that ask for one key at the same time share a
// single call of fill: the first is the miss, the others are hits that
// wait for it. A failed fill is reported to the callers sharing it and
// leaves no trace: an error is never served from the table, and only a
// value that was computed can push an older one out.
func (t *Table[K, V]) Do(key K, fill func() (V, error)) (v V, hit bool, err error) {
	t.mu.Lock()
	e, hit := t.m[key]
	if hit {
		t.hits++
	} else {
		t.misses++
		e = &entry[V]{}
		t.m[key] = e
	}
	t.mu.Unlock()

	e.once.Do(func() {
		e.v, e.err = fill()
		t.mu.Lock()
		defer t.mu.Unlock()
		if e.err != nil {
			delete(t.m, key)
			return
		}
		e.kept = true
		t.order = append(t.order, key)
		for len(t.order) > t.max {
			delete(t.m, t.order[0])
			var none K
			t.order[0] = none // the backing array must not pin an evicted key
			t.order = t.order[1:]
			t.evicts++
		}
	})
	return e.v, hit, e.err
}

// Peek returns the value kept under key without filling it or counting a
// hit or a miss. An entry still being filled is not kept yet.
func (t *Table[K, V]) Peek(key K) (v V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[key]; e != nil && e.kept {
		return e.v, true
	}
	return v, false
}

// Stats snapshots the counters.
func (t *Table[K, V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Hits: t.hits, Misses: t.misses, Evicts: t.evicts, Entries: len(t.order)}
}
