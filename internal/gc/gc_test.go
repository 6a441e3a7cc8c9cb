package gc

import (
	"testing"

	"repro/internal/heap"
)

// alloc pressure below the arena cap exercises the policy's minor/major
// escalation paths.
func churn(t *testing.T, h *heap.Heap, blocks, size int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if _, err := h.Alloc(int64(size)); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
}

func TestPolicyKeepsProcessUnderPressure(t *testing.T) {
	h := heap.New(heap.Config{InitialWords: 2048, MaxWords: 4096})
	p := New()
	h.SetCollector(p)
	var keep heap.Value
	h.AddRoots(func(yield func(heap.Value)) { yield(keep) })
	var err error
	keep, err = h.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Store(keep, 0, heap.IntVal(5)); err != nil {
		t.Fatal(err)
	}
	churn(t, h, 4000, 16)
	if got, err := h.Load(keep, 0); err != nil || got.I != 5 {
		t.Fatalf("survivor = %v, %v", got, err)
	}
	s := p.Stats()
	if s.MinorRuns == 0 {
		t.Fatal("policy never ran a minor collection")
	}
	if s.WordsRecycled == 0 {
		t.Fatal("policy recycled nothing")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyEscalatesToMajor(t *testing.T) {
	h := heap.New(heap.Config{InitialWords: 1024, MaxWords: 1024})
	p := New()
	p.MajorEvery = 0 // only escalation can trigger majors
	h.SetCollector(p)
	// Fill most of the arena with live data so minors can't make room.
	live := make([]heap.Value, 0, 8)
	h.AddRoots(func(yield func(heap.Value)) {
		for _, v := range live {
			yield(v)
		}
	})
	for i := 0; i < 9; i++ {
		v, err := h.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, v)
	}
	// Churn garbage through the remaining headroom.
	for i := 0; i < 200; i++ {
		if _, err := h.Alloc(40); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if p.Stats().Escalations == 0 {
		t.Fatal("no escalation to major despite high live ratio")
	}
}

func TestPolicyForcedMajor(t *testing.T) {
	h := heap.New(heap.Config{InitialWords: 512, MaxWords: 512})
	p := New()
	p.MajorEvery = 3
	h.SetCollector(p)
	churn(t, h, 400, 16)
	if p.Stats().ForcedMajors == 0 {
		t.Fatalf("no forced major after %d minors: %+v", p.Stats().MinorRuns, p.Stats())
	}
}
