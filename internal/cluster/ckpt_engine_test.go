package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/migrate"
	"repro/internal/rt"
	"repro/internal/wire"
)

// runRing executes the ring workload on an engine with the given
// checkpoint options and store, driving one failure + resurrection of
// `victim` after its checkpoint count reaches failAfter (0 = no failure),
// and verifies every node against the sequential reference.
func runRing(t *testing.T, store *notifyStore, opts ckpt.Options, workers int, victim int64, failAfter int, delay time.Duration) *Engine {
	t.Helper()
	const (
		nodes = 4
		steps = 12
		cki   = 3
	)
	prog, err := lang.Compile(ringSrc, ringExterns())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Store: store, Workers: workers, Quantum: 500, Ckpt: opts})
	defer e.Close()
	arenas := watchArenas(e)

	resurrected := make(chan error, 1)
	if failAfter > 0 {
		var failOnce sync.Once
		head := fmt.Sprintf("ring-ck-%d", victim)
		store.onPut = func(name string, count int) {
			if name != head || count < failAfter {
				return
			}
			failOnce.Do(func() {
				e.Fail(victim)
				go func() {
					time.Sleep(delay)
					resurrected <- e.Resurrect(victim, head, ringCkExtern(victim))
				}()
			})
		}
	} else {
		close(resurrected)
	}

	args := []int64{nodes, steps, cki}
	for n := int64(0); n < nodes; n++ {
		if err := e.StartProcess(n, prog, args, ringCkExtern(n)); err != nil {
			t.Fatal(err)
		}
	}
	if failAfter > 0 {
		if err := <-resurrected; err != nil {
			t.Fatalf("resurrection: %v", err)
		}
	}
	states, err := e.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(nodes, steps)
	for n := int64(0); n < nodes; n++ {
		st := states[n]
		if st.Status != rt.StatusHalted {
			t.Fatalf("node %d: %+v", n, st)
		}
		if st.Halt != want[n] {
			t.Fatalf("node %d halt = %d, want %d", n, st.Halt, want[n])
		}
	}
	if killed := arenas.check(t, e); failAfter > 0 && killed == 0 {
		t.Fatal("no killed incarnation seen")
	}
	return e
}

// arenaWatch collects the incarnations an engine runs, so a test can
// check after Wait that every one has released its heap: the killed ones
// as their node is resurrected, the rest (halted or migrated away) from
// the engine's last drivers.
type arenaWatch struct {
	mu     sync.Mutex
	killed []*heap.Heap
}

func watchArenas(e *Engine) *arenaWatch {
	w := &arenaWatch{}
	e.SetResurrectWindowHook(func(node int64, _ string) {
		// The killed incarnation's driver has exited; the new one has not
		// replaced it yet.
		h := e.driver(node).proc.Heap()
		w.mu.Lock()
		w.killed = append(w.killed, h)
		w.mu.Unlock()
	})
	return w
}

// check fails the test if a finished incarnation still holds an arena,
// and returns how many killed incarnations it saw.
func (w *arenaWatch) check(t *testing.T, e *Engine) int {
	t.Helper()
	w.mu.Lock()
	heaps := append([]*heap.Heap(nil), w.killed...)
	w.mu.Unlock()
	e.mu.Lock()
	for _, d := range e.drivers {
		heaps = append(heaps, d.proc.Heap())
	}
	e.mu.Unlock()
	for i, h := range heaps {
		if n := h.ArenaWords(); n != 0 {
			t.Fatalf("finished incarnation %d of %d still holds a %d-word arena", i, len(heaps), n)
		}
	}
	return len(w.killed)
}

// TestFinishedIncarnationsReleaseTheirArenas: once Wait returns, every
// incarnation an engine ran has given its arena back — halted, migrated
// away, and killed with an async commit in flight. (runRing checks every
// ring run the same way.)
func TestFinishedIncarnationsReleaseTheirArenas(t *testing.T) {
	t.Run("handoff", func(t *testing.T) {
		prog, err := lang.Compile(handoffSrc, Externs())
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(EngineConfig{Workers: 2})
		defer e.Close()
		arenas := watchArenas(e)
		for n := int64(0); n < 2; n++ {
			if err := e.StartProcess(n, prog, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		states, err := e.Wait(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if states[0].Status != rt.StatusMigrated || states[5] == nil || states[5].Status != rt.StatusHalted {
			t.Fatalf("node 0 = %+v, node 5 = %+v: want migrated away and halted", states[0], states[5])
		}
		arenas.check(t, e)
	})
	t.Run("async-kill-mid-commit", func(t *testing.T) {
		store := &notifyStore{Store: &slowStore{Store: NewMemStore(), memberDelay: 3 * time.Millisecond}}
		runRing(t, store, ckpt.Options{Mode: ckpt.ModeAsync, K: 2}, 2, 2, 1, 5*time.Millisecond)
	})
}

// TestCkptModesRingBitExact: the ring converges to the same reference
// values in every checkpoint pipeline mode, failure-free and across a
// failure + resurrection, on unbounded and bounded worker pools.
func TestCkptModesRingBitExact(t *testing.T) {
	for _, mode := range []ckpt.Mode{ckpt.ModeFull, ckpt.ModeDelta, ckpt.ModeAsync} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				store := &notifyStore{Store: NewMemStore()}
				e := runRing(t, store, ckpt.Options{Mode: mode}, workers, 1, 1, 10*time.Millisecond)
				st := e.CkptStats()
				if st.Checkpoints == 0 {
					t.Fatal("no checkpoints recorded")
				}
				if mode != ckpt.ModeFull && st.Deltas == 0 {
					t.Fatalf("mode %s wrote no delta checkpoints: %+v", mode, st)
				}
				if st.Recoveries != 1 {
					t.Fatalf("recoveries = %d, want 1", st.Recoveries)
				}
			})
		}
	}
}

// slowStore delays chain-member writes so an async commit is reliably in
// flight when the fault script kills the node.
type slowStore struct {
	migrate.Store
	memberDelay time.Duration
}

func (s *slowStore) Put(name string, data []byte) error {
	if strings.Contains(name, "@") {
		time.Sleep(s.memberDelay)
	}
	return s.Store.Put(name, data)
}

// TestAsyncKillMidCommitRecovery is the durability-watermark race test
// (run under -race): the store is slow, so when the victim dies it still
// has an async commit in flight. The resurrection must come back from
// the last *durable* checkpoint — never the in-flight one — and the ring
// must still converge bit-exactly. Exercised across both kill points:
// after the first checkpoint (mostly-empty chain) and a later one.
func TestAsyncKillMidCommitRecovery(t *testing.T) {
	for _, failAfter := range []int{1, 2} {
		t.Run(fmt.Sprintf("failAfter=%d", failAfter), func(t *testing.T) {
			store := &notifyStore{Store: &slowStore{Store: NewMemStore(), memberDelay: 3 * time.Millisecond}}
			e := runRing(t, store, ckpt.Options{Mode: ckpt.ModeAsync, K: 2}, 2, 2, failAfter, 5*time.Millisecond)
			st := e.CkptStats()
			if st.Checkpoints == 0 || st.Deltas == 0 {
				t.Fatalf("async pipeline inactive: %+v", st)
			}
		})
	}
}

// TestDeltaChainResurrect pins the on-store chain layout: delta mode with
// a small K leaves immutable members under head@N plus a head ref, the
// head resolves through FetchImage to a full image, and resurrection
// from a mid-chain head converges.
func TestDeltaChainResurrect(t *testing.T) {
	store := &notifyStore{Store: NewMemStore()}
	// K=3 with 4 checkpoints/node: the survivors' heads land on a delta
	// (full@0 + deltas@1..3), so resolution walks a real chain.
	e := runRing(t, store, ckpt.Options{Mode: ckpt.ModeDelta, K: 3}, 0, 1, 2, 10*time.Millisecond)

	head := "ring-ck-0" // a survivor's chain, untouched by the failure
	data, err := e.Store.Get(head)
	if err != nil {
		t.Fatal(err)
	}
	target, ok := wire.DecodeRef(data)
	if !ok {
		t.Fatalf("head %q does not hold a ref record", head)
	}
	if !strings.HasPrefix(target, head+"@") {
		t.Fatalf("head ref %q does not name a chain member of %q", target, head)
	}
	chain, err := migrate.ResolveChain(e.Store, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) < 2 {
		t.Fatalf("chain %v too short to exercise delta resolution", chain)
	}
	if len(chain) > 4 {
		t.Fatalf("chain %v longer than K=3 allows (full + 3 deltas)", chain)
	}
	img, err := migrate.FetchImage(e.Store, head)
	if err != nil {
		t.Fatal(err)
	}
	if img.State.Heap == nil || len(img.State.Heap.Entries) == 0 {
		t.Fatal("rebuilt image has an empty heap")
	}
}

// TestDeltaChainPruning: publishing a full image deletes the chain
// members it supersedes, so the store does not grow without bound over
// a long run.
func TestDeltaChainPruning(t *testing.T) {
	store := &notifyStore{Store: NewMemStore()}
	// K=1 alternates full/delta, so several fulls publish (and prune)
	// during the run.
	runRing(t, store, ckpt.Options{Mode: ckpt.ModeDelta, K: 1}, 0, 0, 0, 0)

	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	byHead := make(map[string][]string)
	for _, n := range names {
		if i := strings.IndexByte(n, '@'); i >= 0 && !migrate.IsCodeName(n) {
			byHead[n[:i]] = append(byHead[n[:i]], n)
		}
	}
	for head, members := range byHead {
		// Everything before the last published full is pruned: at most
		// the latest full plus the deltas after it (≤ K) may remain.
		if len(members) > 2 {
			t.Fatalf("chain %q kept %d members after pruning: %v", head, len(members), members)
		}
		chain, err := migrate.ResolveChain(store, head)
		if err != nil {
			t.Fatalf("chain %q unresolvable after pruning: %v", head, err)
		}
		if len(chain) == 0 {
			t.Fatalf("chain %q empty", head)
		}
	}
	if len(byHead) == 0 {
		t.Fatal("no chain members in the store at all")
	}
}

// TestHandoffWaitsForItsCheckpoints: a process migrates out of its node
// only once every checkpoint it captured there is durable. A kill keyed
// on the checkpoint's head Put therefore lands before the process has
// left; the handoff is refused and the process dies on its node, rather
// than running on as node 5 while node 0's checkpoint still names it.
func TestHandoffWaitsForItsCheckpoints(t *testing.T) {
	prog, err := lang.Compile(`
int main() {
	migrate("checkpoint://ck");
	migrate("node://5");
	return node_id();
}`, Externs())
	if err != nil {
		t.Fatal(err)
	}
	store := &notifyStore{Store: &slowStore{Store: NewMemStore(), memberDelay: 20 * time.Millisecond}}
	e := NewEngine(EngineConfig{Store: store, Ckpt: ckpt.Options{Mode: ckpt.ModeAsync}})
	defer e.Close()
	store.onPut = func(name string, _ int) {
		if name == "ck" {
			e.Fail(0)
		}
	}
	if err := e.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	states, err := e.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := states[5]; st != nil {
		t.Fatalf("node 5 = %+v: the process migrated out before its checkpoint was durable", st)
	}
	if st := states[0]; st == nil || st.Status == rt.StatusMigrated {
		t.Fatalf("node 0 = %+v, want killed on its own node", st)
	}
}
