package ckpt

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

type fakeStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string][]byte)} }

func (s *fakeStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = append([]byte(nil), data...)
	return nil
}

func (s *fakeStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("ckpt_test: %q not found", name)
	}
	return d, nil
}

func (s *fakeStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
	return nil
}

func (s *fakeStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{"": ModeFull, "full": ModeFull, "delta": ModeDelta, "async": ModeAsync}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if ModeAsync.String() != "async" || ModeFull.String() != "full" {
		t.Fatal("mode String() mismatch")
	}
}

// TestProbeSeq: a fresh committer never reuses member names an earlier
// incarnation (possibly still mid-write) may own.
func TestProbeSeq(t *testing.T) {
	s := newFakeStore()
	if got, err := probeSeq(s, "ck"); err != nil || got != 0 {
		t.Fatalf("empty store: seq %d, %v, want 0", got, err)
	}
	_ = s.Put("ck@0", []byte("a"))
	_ = s.Put("ck@7", []byte("b"))
	_ = s.Put("ck", []byte("head"))
	_ = s.Put("other@99", []byte("c"))
	_ = s.Put("ck@junk", []byte("d"))
	if got, err := probeSeq(s, "ck"); err != nil || got != 8 {
		t.Fatalf("seq %d, %v, want 8 (max member + 1)", got, err)
	}
}

// TestAfterOwnerDurable pins the watermark hook semantics: inline when
// nothing is pending, queued behind pending commits, dropped entirely
// for a failed owner.
func TestAfterOwnerDurable(t *testing.T) {
	c := New(newFakeStore(), Options{Mode: ModeAsync})
	ran := 0

	// No chains yet: runs inline.
	c.AfterOwnerDurable(1, func() { ran++ })
	if ran != 1 {
		t.Fatalf("inline run: %d", ran)
	}

	ch, err := c.chainFor("ck-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	ch.pending = 1
	c.mu.Unlock()
	c.AfterOwnerDurable(1, func() { ran++ })
	if ran != 1 {
		t.Fatal("callback ran while a commit was pending")
	}
	// Settling the pending commit releases the callback.
	c.mu.Lock()
	c.settleLocked(ch)
	c.mu.Unlock()
	if ran != 2 {
		t.Fatalf("callback not released on settle: %d", ran)
	}

	// A failed owner's callbacks are dropped — pending or not.
	c.AbortOwner(1)
	c.AfterOwnerDurable(1, func() { ran++ })
	if ran != 2 {
		t.Fatal("callback ran for a failed owner")
	}
	c.mu.Lock()
	ch.pending = 1
	ch.afterDurable = append(ch.afterDurable, &durableWait{remaining: 1, fn: func() { ran++ }})
	c.settleLocked(ch)
	c.mu.Unlock()
	if ran != 2 {
		t.Fatal("queued callback survived the abort")
	}

	// Resurrection reopens the chain.
	c.ResumeOwner(1)
	c.AfterOwnerDurable(1, func() { ran++ })
	if ran != 3 {
		t.Fatal("callback blocked after ResumeOwner")
	}

	// A commit failure (sticky error, head ref never published) drops
	// callbacks exactly like an abort: the announced floor belongs to a
	// checkpoint that never became the watermark.
	c.mu.Lock()
	ch.pending = 1
	c.mu.Unlock()
	c.AfterOwnerDurable(1, func() { ran++ })
	c.mu.Lock()
	ch.err = fmt.Errorf("store went away")
	c.settleLocked(ch)
	c.mu.Unlock()
	if ran != 3 {
		t.Fatal("callback ran although the commit failed")
	}
	c.AfterOwnerDurable(1, func() { ran++ })
	if ran != 3 {
		t.Fatal("callback ran on a poisoned chain")
	}
}

// TestAfterOwnerDurableSpansChains: an owner checkpointing under two
// names releases the callback only when BOTH chains settle, and an
// abort on either drops it.
func TestAfterOwnerDurableSpansChains(t *testing.T) {
	c := New(newFakeStore(), Options{Mode: ModeAsync})
	a, err := c.chainFor("ck-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.chainFor("ck-b", 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	c.mu.Lock()
	a.pending, b.pending = 1, 1
	c.mu.Unlock()
	c.AfterOwnerDurable(1, func() { ran++ })
	c.mu.Lock()
	c.settleLocked(a)
	c.mu.Unlock()
	if ran != 0 {
		t.Fatal("callback fired with the second chain still pending")
	}
	c.mu.Lock()
	c.settleLocked(b)
	c.mu.Unlock()
	if ran != 1 {
		t.Fatalf("callback did not fire after both chains settled (ran=%d)", ran)
	}

	// Abort on one chain drops a wait spanning both.
	c.mu.Lock()
	a.pending, b.pending = 1, 1
	c.mu.Unlock()
	c.AfterOwnerDurable(1, func() { ran++ })
	c.mu.Lock()
	c.settleLocked(a) // a settles cleanly: wait now rides on b alone
	b.aborted = true
	c.settleLocked(b)
	c.mu.Unlock()
	if ran != 1 {
		t.Fatal("callback survived an abort on one of its chains")
	}
}

// flakyDeleteStore is a fakeStore whose Delete fails for names in bad.
type flakyDeleteStore struct {
	*fakeStore
	bad map[string]bool
}

func (s *flakyDeleteStore) Delete(name string) error {
	if s.bad[name] {
		return fmt.Errorf("ckpt_test: delete %q refused", name)
	}
	return s.fakeStore.Delete(name)
}

// TestPruneObservability: best-effort chain pruning stays best-effort,
// but failed deletes are counted and surfaced through OnPruneError
// instead of being swallowed.
func TestPruneObservability(t *testing.T) {
	store := &flakyDeleteStore{fakeStore: newFakeStore(), bad: map[string]bool{"ck@1": true}}
	var failures []string
	c := New(store, Options{
		Mode: ModeDelta,
		OnPruneError: func(name string, err error) {
			if err == nil {
				t.Errorf("OnPruneError(%q) with nil error", name)
			}
			failures = append(failures, name)
		},
	})
	ch, err := c.chainFor("ck", 1)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 4; seq++ {
		_ = store.Put(MemberName("ck", seq), []byte("member"))
		ch.members = append(ch.members, memberRec{name: MemberName("ck", seq), seq: seq})
	}

	// Publishing full image @3 makes @0..@2 dead; @1's delete fails.
	c.prune(ch, 3)

	st := c.Stats()
	if st.Pruned != 2 || st.PruneFailures != 1 {
		t.Fatalf("stats Pruned=%d PruneFailures=%d, want 2/1", st.Pruned, st.PruneFailures)
	}
	if len(failures) != 1 || failures[0] != "ck@1" {
		t.Fatalf("OnPruneError saw %v, want [ck@1]", failures)
	}
	if len(ch.members) != 1 || ch.members[0].name != "ck@3" {
		t.Fatalf("surviving members %v, want just ck@3", ch.members)
	}
	names, _ := store.List()
	want := []string{"ck@1", "ck@3"} // @1 leaked (delete refused), @3 is live
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("store holds %v, want %v", names, want)
	}

	// A second prune with nothing dead touches no counters.
	c.prune(ch, 3)
	if st2 := c.Stats(); st2.Pruned != 2 || st2.PruneFailures != 1 {
		t.Fatalf("idle prune moved counters: %+v", st2)
	}
}
