package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/fir"
	"repro/internal/rt"
)

// haltProgram halts with code; the salt names a function so that two
// programs never share a cache entry through anything but identity.
func haltProgram(code int64, salt string) *fir.Program {
	main := fir.Fn("main", nil, fir.NewBuilder().Halt(fir.I(code)))
	pad := fir.Fn("pad_"+salt, fir.Ps("a", fir.TyInt), fir.NewBuilder().Halt(fir.V("a")))
	return fir.NewProgram("main", main, pad)
}

func TestArtifactCacheCountersAndBound(t *testing.T) {
	c := newArtifactCache[int]("t")
	compiles := 0
	compile := func(*fir.Program) (int, error) { compiles++; return compiles, nil }
	stats := func() map[string]uint64 {
		m := map[string]uint64{}
		c.stats(m)
		return m
	}

	progs := make([]*fir.Program, artifactCacheMax+3)
	for i := range progs {
		progs[i] = haltProgram(0, fmt.Sprint(i))
		if art, err := c.load(progs[i], compile); err != nil || art != i+1 {
			t.Fatalf("load %d = %d, %v", i, art, err)
		}
		if n := stats()["t_entries"]; n > artifactCacheMax {
			t.Fatalf("after %d programs the cache holds %d, bound %d", i+1, n, artifactCacheMax)
		}
	}
	want := map[string]uint64{
		"t_hits": 0, "t_misses": uint64(len(progs)), "t_evicts": 3, "t_entries": artifactCacheMax,
	}
	if got := stats(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stats %v, want %v", got, want)
	}

	// The newest is kept, with the artifact of its one compile; the three
	// oldest went first-in first-out and compile again.
	last := len(progs) - 1
	if art, _ := c.load(progs[last], compile); art != last+1 {
		t.Fatalf("newest program: artifact %d, want the cached %d", art, last+1)
	}
	if art, _ := c.load(progs[3], compile); art != 4 {
		t.Fatalf("program 3 should have survived with artifact 4, got %d", art)
	}
	before := compiles
	for i := 0; i < 3; i++ {
		c.load(progs[i], compile)
	}
	if compiles != before+3 {
		t.Fatalf("the three evicted programs made %d compiles, want 3", compiles-before)
	}
	if got := stats(); got["t_hits"] != 2 || got["t_evicts"] != 6 {
		t.Fatalf("stats %v, want 2 hits and 6 evictions", got)
	}

	// A compile error reaches the caller and is not kept.
	boom := errors.New("boom")
	bad := haltProgram(0, "bad")
	for i := 0; i < 2; i++ {
		if _, err := c.load(bad, func(*fir.Program) (int, error) { return 0, boom }); err != boom {
			t.Fatalf("failing load %d: %v", i, err)
		}
	}
	if got := stats(); got["t_entries"] != artifactCacheMax || got["t_evicts"] != 6 {
		t.Fatalf("stats %v after failed compiles: nothing may be kept or evicted", got)
	}
}

func TestCacheStatsKeys(t *testing.T) {
	var got []string
	for k := range CacheStats() {
		got = append(got, k)
	}
	sort.Strings(got)
	var want []string
	for _, e := range Names() {
		for _, c := range []string{"hits", "misses", "evicts", "entries"} {
			want = append(want, e+"_"+c)
		}
	}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CacheStats keys %v, want %v", got, want)
	}
}

// TestPrecompileSharesTheArtifactCache: on every engine, Precompile of a
// program New has already compiled is a hit returning that artifact, a
// second Precompile returns the same one again, and a process resumed
// with it runs.
func TestPrecompileSharesTheArtifactCache(t *testing.T) {
	for _, name := range Names() {
		f, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var pc Precompiler = f
		prog := haltProgram(42, name)

		s0 := CacheStats()
		proc := f.New(prog, rt.Config{})
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		if st, err := proc.Run(); err != nil || st != rt.StatusHalted || proc.HaltCode() != 42 {
			t.Fatalf("%s: fresh run status=%s halt=%d err=%v", name, st, proc.HaltCode(), err)
		}
		a1, err := pc.Precompile(prog)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := pc.Precompile(prog)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatalf("%s: two Precompiles of one program returned different artifacts", name)
		}
		s1 := CacheStats()
		if miss, hit := s1[name+"_misses"]-s0[name+"_misses"], s1[name+"_hits"]-s0[name+"_hits"]; miss != 1 || hit != 2 {
			t.Fatalf("%s: New + 2 Precompiles made %d misses and %d hits, want 1 and 2", name, miss, hit)
		}

		// An equal program under another pointer is another entry.
		b, err := pc.Precompile(haltProgram(42, name))
		if err != nil {
			t.Fatal(err)
		}
		if b == a1 {
			t.Fatalf("%s: a different *fir.Program was served this one's artifact", name)
		}
	}
}

func TestConcurrentNewCompilesOnce(t *testing.T) {
	for _, name := range Names() {
		f, _ := Get(name)
		prog := haltProgram(7, "concurrent_"+name)
		before := CacheStats()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				proc := f.New(prog, rt.Config{})
				err := proc.Start()
				if err == nil {
					_, err = proc.Run()
				}
				if err != nil || proc.HaltCode() != 7 {
					t.Errorf("%s: %v", name, err)
				}
			}()
		}
		wg.Wait()
		after := CacheStats()
		if miss := after[name+"_misses"] - before[name+"_misses"]; miss != 1 {
			t.Errorf("%s: four concurrent starts of one program made %d artifact misses, want 1", name, miss)
		}
	}
}
