package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoFillsOncePerKey(t *testing.T) {
	tb := New[string, int](4)
	fills := 0
	get := func(k string) (int, bool) {
		v, hit, err := tb.Do(k, func() (int, error) { fills++; return len(k), nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if v, hit := get("abc"); v != 3 || hit {
		t.Fatalf("first Do = %d, hit %v; want 3, miss", v, hit)
	}
	if v, hit := get("abc"); v != 3 || !hit {
		t.Fatalf("second Do = %d, hit %v; want 3, hit", v, hit)
	}
	get("z")
	if fills != 2 {
		t.Fatalf("%d fills for two keys", fills)
	}
	if st := tb.Stats(); st != (Stats{Hits: 1, Misses: 2, Entries: 2}) {
		t.Fatalf("stats %+v", st)
	}
}

func TestBoundEvictsOldestFirst(t *testing.T) {
	tb := New[int, int](3)
	fill := func(k int) func() (int, error) { return func() (int, error) { return k * 10, nil } }
	for k := 1; k <= 5; k++ {
		tb.Do(k, fill(k))
		if n := tb.Stats().Entries; n > 3 {
			t.Fatalf("after key %d the table holds %d, bound 3", k, n)
		}
	}
	if st := tb.Stats(); st.Evicts != 2 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 2 evictions and 3 entries", st)
	}
	for _, k := range []int{3, 4, 5} {
		if _, hit, _ := tb.Do(k, fill(k)); !hit {
			t.Errorf("key %d should have survived", k)
		}
	}
	if _, hit, _ := tb.Do(1, fill(1)); hit {
		t.Error("key 1, the oldest, should have been evicted")
	}
}

func TestFailedFillLeavesNoTrace(t *testing.T) {
	tb := New[int, int](2)
	tb.Do(1, func() (int, error) { return 1, nil })
	tb.Do(2, func() (int, error) { return 2, nil })
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if _, hit, err := tb.Do(3, func() (int, error) { return 0, boom }); err != boom || hit {
			t.Fatalf("failing Do %d: hit %v err %v", i, hit, err)
		}
	}
	st := tb.Stats()
	if st.Entries != 2 || st.Evicts != 0 || st.Misses != 5 {
		t.Fatalf("stats %+v: failed fills must not be kept and must evict nothing", st)
	}
	for _, k := range []int{1, 2} {
		if _, hit, _ := tb.Do(k, func() (int, error) { return 0, nil }); !hit {
			t.Fatalf("key %d was pushed out by a failed fill", k)
		}
	}
	if v, _, err := tb.Do(3, func() (int, error) { return 33, nil }); err != nil || v != 33 {
		t.Fatalf("key 3 after its failures: %d, %v", v, err)
	}
}

func TestConcurrentCallersShareOneFill(t *testing.T) {
	tb := New[string, *int](4)
	var fills atomic.Int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	got := make([]*int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, _ = tb.Do("k", func() (*int, error) {
				fills.Add(1)
				<-release
				return new(int), nil
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills for one key", fills.Load())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("callers of one key got different values")
		}
	}
	if st := tb.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, n-1)
	}
}
