package apps

import (
	"crypto/sha256"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/store"
	"repro/internal/workload"
)

// isMember reports whether a store object name has the chain-member
// form "head@seq".
func isMember(name string) bool {
	i := strings.LastIndexByte(name, '@')
	if i < 0 {
		return false
	}
	_, err := strconv.Atoi(name[i+1:])
	return err == nil
}

// storeKillScript is the store-tier fault drill: replica 1 dies after
// the very first store write — between a chain member landing and its
// head ref being published, i.e. mid-commit — and never comes back.
// Then node 1 itself dies after its 2nd checkpoint and must be
// resurrected from the surviving two-replica quorum.
func storeKillScript() *workload.FaultScript {
	return &workload.FaultScript{Events: []workload.FaultEvent{
		{Kind: workload.KindStoreKill, Node: 1, AfterCheckpoints: 1, NoRevive: true},
		{Node: 1, AfterCheckpoints: 2, Delay: 20 * time.Millisecond},
	}}
}

// checkGCLeavesLiveSet runs retention GC over st and verifies the
// acceptance property: afterwards every head ref still resolves, every
// resolved chain member is readable, and the store holds exactly the
// live set (no dead chain members or orphaned fulls survive).
func checkGCLeavesLiveSet(t *testing.T, st migrate.Store) {
	t.Helper()
	stats, err := store.RunGC(st, store.Options{})
	if err != nil {
		t.Fatalf("RunGC: %v", err)
	}
	if stats.Failures != 0 {
		t.Fatalf("GC failures = %d, want 0", stats.Failures)
	}
	if stats.Swept == 0 {
		t.Fatal("GC swept nothing: the run left no dead chain members, test proves nothing")
	}

	names, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	live := make(map[string]bool)
	for _, n := range names {
		if isMember(n) || migrate.IsCodeName(n) {
			continue
		}
		live[n] = true
		chain, err := migrate.ResolveChain(st, n)
		if err != nil {
			t.Fatalf("post-GC ResolveChain(%q): %v", n, err)
		}
		for _, m := range chain {
			if _, err := st.Get(m); err != nil {
				t.Fatalf("post-GC chain member %q of %q unreadable: %v", m, n, err)
			}
			live[m] = true
		}
		// The code object the head's image names survives every sweep.
		img, err := migrate.FetchImage(st, n)
		if err != nil {
			t.Fatalf("post-GC FetchImage(%q): %v", n, err)
		}
		code := migrate.CodeName(sha256.Sum256(img.Code.Program))
		if _, err := st.Get(code); err != nil {
			t.Fatalf("post-GC code object %q of %q unreadable: %v", code, n, err)
		}
		live[code] = true
	}
	for _, n := range names {
		if !live[n] {
			t.Errorf("post-GC store still holds %q, which no head ref reaches", n)
		}
	}

	// Steady state: a second sweep finds nothing.
	again, err := store.RunGC(st, store.Options{})
	if err != nil {
		t.Fatalf("second RunGC: %v", err)
	}
	if again.Swept != 0 || again.Failures != 0 {
		t.Fatalf("second GC sweep = %+v, want nothing to do", again)
	}
}

// TestStoreKillMidCommitResurrection: with checkpoints on a 3-way
// quorum-replicated store, a replica killed mid-commit (after a chain
// member's write, before its head ref publishes) and never revived
// does not break the run — a node killed afterwards resurrects
// bit-exactly from the surviving quorum — and retention GC afterwards
// leaves exactly the live chain set.
func TestStoreKillMidCommitResurrection(t *testing.T) {
	for _, app := range []string{"grid", "allreduce"} {
		for _, mode := range []string{"delta", "async"} {
			app, mode := app, mode
			t.Run(app+"/"+mode, func(t *testing.T) {
				t.Parallel()
				w, err := workload.Get(app)
				if err != nil {
					t.Fatal(err)
				}
				st, err := store.Open("repl:3,mem,mem,mem", store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				rep := store.FindReplicated(st)
				if rep == nil {
					t.Fatal("no replicated layer in repl:3 store")
				}

				p := smallParams(w)
				p.Ckpt = mode
				p.CkptK = 1 // force fulls often: guarantees dead members for GC
				script := storeKillScript()
				res, err := workload.RunVerified(w, p, workload.RunConfig{
					Script:        script,
					Timeout:       2 * time.Minute,
					Store:         st,
					NoInlinePrune: true, // retention GC owns cleanup here
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Resurrections != len(script.Events) {
					t.Fatalf("fired events = %d, want %d", res.Resurrections, len(script.Events))
				}
				if !rep.ReplicaDown(1) {
					t.Fatal("replica 1 came back: delay=never must leave it down")
				}
				rep.Wait() // drain background straggler writes before inspecting

				checkGCLeavesLiveSet(t, st)
			})
		}
	}
}

// gcAfterCodeStore runs a retention sweep right after every code-object
// Put, before the Put returns: the sweep lands between a program's code
// object and the first image naming it, the window in which the object
// is referenced by nothing yet.
type gcAfterCodeStore struct {
	migrate.Store
	t      *testing.T
	sweeps atomic.Int32
}

func (s *gcAfterCodeStore) Put(name string, data []byte) error {
	if err := s.Store.Put(name, data); err != nil {
		return err
	}
	if migrate.IsCodeName(name) {
		if _, err := store.RunGC(s.Store, store.Options{}); err != nil {
			s.t.Errorf("RunGC after %s: %v", name, err)
		}
		s.sweeps.Add(1)
	}
	return nil
}

// TestGCBetweenCodePutAndFirstImage: a retention sweep between a code
// object's Put and the Put of the first image that names it leaves the
// object in place, so every checkpoint stays restorable — the kill and
// resurrection here restore from one — and a sweep after the run keeps
// it too.
func TestGCBetweenCodePutAndFirstImage(t *testing.T) {
	for _, mode := range []string{"full", "delta", "async"} {
		t.Run(mode, func(t *testing.T) {
			w, err := workload.Get("grid")
			if err != nil {
				t.Fatal(err)
			}
			st := &gcAfterCodeStore{Store: cluster.NewMemStore(), t: t}
			p := smallParams(w)
			p.Ckpt = mode
			p.CkptK = 1
			script := &workload.FaultScript{Events: []workload.FaultEvent{{Node: 1, AfterCheckpoints: 2}}}
			res, err := workload.RunVerified(w, p, workload.RunConfig{
				Script: script, Timeout: time.Minute, Store: st, NoInlinePrune: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Resurrections != 1 {
				t.Fatalf("resurrections = %d, want 1", res.Resurrections)
			}
			if st.sweeps.Load() == 0 {
				t.Fatal("no code object was written, so no sweep ran in the window")
			}
			if _, err := store.RunGC(st.Store, store.Options{}); err != nil {
				t.Fatal(err)
			}
			for n := int64(0); n < int64(p.Nodes); n++ {
				img, err := migrate.FetchImage(st.Store, w.CheckpointName(n))
				if err != nil {
					t.Fatalf("node %d's checkpoint after the sweeps: %v", n, err)
				}
				if _, err := st.Store.Get(migrate.CodeName(sha256.Sum256(img.Code.Program))); err != nil {
					t.Fatalf("node %d's code object after the sweeps: %v", n, err)
				}
			}
		})
	}
}

// TestDistributedStoreKillMidCommit: the same drill over the TCP
// transport — workers write checkpoints through the coordinator to the
// replicated store; a replica dies mid-commit and a fresh worker
// process resurrects the killed node from the surviving quorum.
func TestDistributedStoreKillMidCommit(t *testing.T) {
	w, err := workload.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("repl:3,mem,mem,mem", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := store.FindReplicated(st)
	p := smallParams(w)
	p.Ckpt = "delta"
	p.CkptK = 1
	script := storeKillScript()
	res, err := workload.RunDistributed(w, p, script,
		workload.DistributedConfig{Spawn: goSpawn(t, w, p), Store: st}, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		t.Fatal(err)
	}
	if res.Resurrections != len(script.Events) {
		t.Fatalf("fired events = %d, want %d", res.Resurrections, len(script.Events))
	}
	if !rep.ReplicaDown(1) {
		t.Fatal("replica 1 came back: delay=never must leave it down")
	}
	rep.Wait()
	checkGCLeavesLiveSet(t, st)
}
