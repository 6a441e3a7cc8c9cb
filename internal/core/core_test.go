package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/rt"
)

func TestCompileAndRunBothBackends(t *testing.T) {
	prog, err := Compile(`
int square(int x) { return x * x; }
int main() { return square(9); }`, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := NewProcess(prog, "risc", rt.Config{}); err == nil {
		t.Fatal("an unregistered engine name was accepted")
	}
	for _, backend := range []string{"", "vm", "jit"} {
		p, err := NewProcess(prog, backend, rt.Config{Fuel: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st != rt.StatusHalted || p.HaltCode() != 81 {
			t.Fatalf("engine %q: status=%s code=%d", backend, st, p.HaltCode())
		}
	}
}

func TestProgramEncodeDecode(t *testing.T) {
	prog, err := Compile(`int main() { return 3; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(prog.Encode())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(q, "", rt.Config{Fuel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.HaltCode() != 3 {
		t.Fatalf("code = %d", p.HaltCode())
	}
}

func TestProcessStdout(t *testing.T) {
	prog, err := Compile(`int main() { print_str("via core"); return 0; }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	p, err := NewProcess(prog, "", rt.Config{Stdout: &out, Fuel: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "via core\n" {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRegionBasics(t *testing.T) {
	r := NewRegion(heap.Config{})
	ref, err := r.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInt(ref, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := r.SetFloat(ref, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if v, err := r.GetInt(ref, 0); err != nil || v != 7 {
		t.Fatalf("GetInt = %d, %v", v, err)
	}
	if v, err := r.GetFloat(ref, 1); err != nil || v != 2.5 {
		t.Fatalf("GetFloat = %v, %v", v, err)
	}
	if _, err := r.GetFloat(ref, 0); err == nil {
		t.Fatal("type confusion accepted")
	}
	if _, err := r.GetInt(ref, 99); err == nil {
		t.Fatal("out of bounds accepted")
	}
}

func TestRegionSpeculationAbort(t *testing.T) {
	r := NewRegion(heap.Config{})
	ref, _ := r.Alloc(2)
	_ = r.SetInt(ref, 0, 100)

	id := r.Speculate()
	if id <= 0 {
		t.Fatalf("Speculate = %d, want positive", id)
	}
	_ = r.SetInt(ref, 0, 999)
	other, _ := r.Alloc(8) // allocated inside the speculation
	_ = r.SetInt(other, 0, 1)

	if err := r.Abort(id); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if v, _ := r.GetInt(ref, 0); v != 100 {
		t.Fatalf("post-abort value = %d, want 100", v)
	}
	if _, err := r.GetInt(other, 0); !errors.Is(err, heap.ErrFreeEntry) {
		t.Fatalf("in-speculation allocation survived abort: %v", err)
	}
	if r.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", r.Depth())
	}
}

func TestRegionSpeculationCommit(t *testing.T) {
	r := NewRegion(heap.Config{})
	ref, _ := r.Alloc(1)
	_ = r.SetInt(ref, 0, 1)
	id := r.Speculate()
	_ = r.SetInt(ref, 0, 2)
	if err := r.Commit(id); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.GetInt(ref, 0); v != 2 {
		t.Fatalf("post-commit value = %d, want 2", v)
	}
}

func TestRegionNestedOutOfOrderCommit(t *testing.T) {
	r := NewRegion(heap.Config{})
	ref, _ := r.Alloc(1)
	_ = r.SetInt(ref, 0, 1)
	outer := r.Speculate()
	_ = r.SetInt(ref, 0, 2)
	inner := r.Speculate()
	_ = r.SetInt(ref, 0, 3)
	// Commit the outer level first (out of order), then abort the inner:
	// the heap must return to the state at the inner speculation's entry.
	if err := r.Commit(outer); err != nil {
		t.Fatal(err)
	}
	if err := r.Abort(inner); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.GetInt(ref, 0); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestRegionLinkedStructureRollback(t *testing.T) {
	r := NewRegion(heap.Config{})
	head, _ := r.Alloc(2)
	r.Pin(head)
	_ = r.SetInt(head, 0, 1)

	id := r.Speculate()
	n2, _ := r.Alloc(2)
	_ = r.SetInt(n2, 0, 2)
	_ = r.SetRef(head, 1, n2)
	if err := r.Abort(id); err != nil {
		t.Fatal(err)
	}
	// head's link word must be back to its original (integer 0) value.
	if _, err := r.GetRef(head, 1); err == nil {
		t.Fatal("rolled-back link still present")
	}
	if v, _ := r.GetInt(head, 1); v != 0 {
		t.Fatalf("link word = %d, want 0", v)
	}
}

func TestRegionSurvivesCollection(t *testing.T) {
	r := NewRegion(heap.Config{InitialWords: 512, MaxWords: 1 << 16})
	keep, _ := r.Alloc(4)
	r.Pin(keep)
	_ = r.SetInt(keep, 0, 41)
	id := r.Speculate()
	_ = r.SetInt(keep, 0, 42)
	for i := 0; i < 500; i++ {
		if _, err := r.Alloc(16); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	r.Collect()
	if v, _ := r.GetInt(keep, 0); v != 42 {
		t.Fatalf("value after GC = %d, want 42", v)
	}
	if err := r.Abort(id); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.GetInt(keep, 0); v != 41 {
		t.Fatalf("value after GC+abort = %d, want 41 (shadow lost)", v)
	}
	if err := r.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any interleaving of writes inside a speculation, abort
// restores exactly the pre-speculation contents.
func TestRegionAbortIsExactQuick(t *testing.T) {
	f := func(initial []int64, writes []uint16) bool {
		if len(initial) == 0 {
			initial = []int64{0}
		}
		if len(initial) > 64 {
			initial = initial[:64]
		}
		r := NewRegion(heap.Config{})
		ref, err := r.Alloc(int64(len(initial)))
		if err != nil {
			return false
		}
		r.Pin(ref)
		for i, v := range initial {
			if r.SetInt(ref, int64(i), v) != nil {
				return false
			}
		}
		id := r.Speculate()
		for _, w := range writes {
			off := int64(w) % int64(len(initial))
			if r.SetInt(ref, off, int64(w)*7) != nil {
				return false
			}
		}
		if r.Abort(id) != nil {
			return false
		}
		for i, v := range initial {
			got, err := r.GetInt(ref, int64(i))
			if err != nil || got != v {
				return false
			}
		}
		return r.Heap().CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
