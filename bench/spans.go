package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its own calls into the program. Parent is the id of the
// span that caused it (-1 for a root); spans of one iteration share Iter.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Iter    int    `json:"iter"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder is
// tracing off: start and end are no-ops, so call sites need no branch.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) start(name string, parent, iter int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, StartNs: now, Parent: parent, Iter: iter})
	r.mu.Unlock()
	return id
}

func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// selfNs returns every span's self time: its duration minus the part of
// that interval its child spans cover (children may overlap each other —
// two nodes put checkpoints concurrently — so the union is taken).
func (r *spanRec) selfNs() map[int]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := k.StartNs, k.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfMsOf lists the self times, in ms, of every span called name.
func (r *spanRec) selfMsOf(name string) []float64 {
	self := r.selfNs()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func (r *spanRec) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
