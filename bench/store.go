package main

import (
	"sync"
	"time"

	"repro/internal/migrate"
)

// countingStore is the probe the harness puts around the checkpoint
// store it hands to a run: it counts and times every operation from
// outside, and, when a span recorder is attached, records each one as a
// child span of the run that issued it.
type countingStore struct {
	inner migrate.Store

	spans  *spanRec // nil = tracing off
	parent int      // span id of the current workload.run
	iter   int

	mu sync.Mutex
	n  storeCounts
}

// storeCounts is what the probe saw; a run's result keeps a copy so the
// store itself, and every checkpoint in it, can go once the run is over.
type storeCounts struct {
	puts     int
	gets     int
	deletes  int
	errors   int
	putBytes int64
	putNs    []float64
	getNs    []float64
}

func (s *countingStore) counts() storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *countingStore) Put(name string, data []byte) error {
	id := s.spans.start("store.put", s.parent, s.iter)
	t0 := time.Now()
	err := s.inner.Put(name, data)
	d := time.Since(t0)
	s.spans.end(id)
	s.mu.Lock()
	s.n.puts++
	s.n.putBytes += int64(len(data))
	s.n.putNs = append(s.n.putNs, float64(d.Nanoseconds()))
	if err != nil {
		s.n.errors++
	}
	s.mu.Unlock()
	return err
}

func (s *countingStore) Get(name string) ([]byte, error) {
	id := s.spans.start("store.get", s.parent, s.iter)
	t0 := time.Now()
	data, err := s.inner.Get(name)
	d := time.Since(t0)
	s.spans.end(id)
	s.mu.Lock()
	s.n.gets++
	s.n.getNs = append(s.n.getNs, float64(d.Nanoseconds()))
	// A miss is how the committer probes for an existing chain, not a
	// fault, so Get errors are not counted.
	s.mu.Unlock()
	return data, err
}

func (s *countingStore) List() ([]string, error) { return s.inner.List() }

// Delete forwards to the wrapped store's optional pruning method, so the
// committer's inline prune still reaches the backend through the probe.
func (s *countingStore) Delete(name string) error {
	d, ok := s.inner.(interface{ Delete(string) error })
	if !ok {
		return nil
	}
	id := s.spans.start("store.delete", s.parent, s.iter)
	err := d.Delete(name)
	s.spans.end(id)
	s.mu.Lock()
	s.n.deletes++
	if err != nil {
		s.n.errors++
	}
	s.mu.Unlock()
	return err
}

// logicalBytes sums the sizes of every object as read back through the
// store tier (after any decompression).
func (s *countingStore) logicalBytes() (int64, error) {
	names, err := s.inner.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		data, err := s.inner.Get(n)
		if err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}
