package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/migrate"
	"repro/internal/rt"
)

// TestWorkersOneNoDeadlock pins the worker pool's slot-lending contract:
// with a single worker slot, a node parked in msg_recv must release its
// slot so the node that will send to it can run.
func TestWorkersOneNoDeadlock(t *testing.T) {
	prog, err := lang.Compile(pingPongSrc, Externs())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewEngine(EngineConfig{Workers: workers})
			defer c.Close()
			for n := int64(0); n < 2; n++ {
				if err := c.StartProcess(n, prog, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			states, err := c.Wait(30 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if states[0].Halt != 21 || states[1].Halt != 21 {
				t.Fatalf("halt codes: %d, %d (want 21, 21)", states[0].Halt, states[1].Halt)
			}
		})
	}
}

const handoffSrc = `
int main() {
	int me = node_id();
	ptr buf = alloc(1);
	buf[0] = 41;
	if (me == 0) {
		migrate("node://5");
	}
	return buf[0] + node_id();
}`

// TestNodeHandoff exercises the migration-aware handoff: node 0 executes
// migrate("node://5") and must be quiesced at its migrate point, packed,
// and resumed as node 5 — heap intact, externs rebound to the new node id
// — while node 1 keeps running undisturbed.
func TestNodeHandoff(t *testing.T) {
	prog, err := lang.Compile(handoffSrc, Externs())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Workers: 2})
	defer e.Close()
	for n := int64(0); n < 2; n++ {
		if err := e.StartProcess(n, prog, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	states, err := e.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := states[0]; st.Status != rt.StatusMigrated {
		t.Fatalf("node 0 = %+v, want migrated", st)
	}
	if st := states[1]; st.Status != rt.StatusHalted || st.Halt != 42 {
		t.Fatalf("node 1 = %+v, want halt 42", st)
	}
	// The migrated-in incarnation sees node_id() == 5 and the heap it
	// packed on node 0.
	if st := states[5]; st == nil || st.Status != rt.StatusHalted || st.Halt != 46 {
		t.Fatalf("node 5 = %+v, want halt 46", st)
	}
}

// TestHandoffToOccupiedNodeContinuesLocal: migrating onto a node that
// already runs a process must fail the migration, and per §4.2.1 the
// process continues on the source machine.
func TestHandoffToOccupiedNodeContinuesLocal(t *testing.T) {
	src := `
int main() {
	migrate("node://1");
	return node_id() * 100 + 7;
}`
	prog, err := lang.Compile(src, Externs())
	if err != nil {
		t.Fatal(err)
	}
	blocked := `
int main() {
	ptr buf = alloc(1);
	int r = msg_recv(9, 1, buf, 0, 1); // parked for the whole run
	return r;
}`
	bprog, err := lang.Compile(blocked, Externs())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{})
	defer e.Close()
	if err := e.StartProcess(1, bprog, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Node 0's migration to occupied node 1 fails; it continues locally
	// and halts with its own node id.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := e.snapshot()[0]; st.Status == rt.StatusHalted {
			if st.Halt != 7 {
				t.Fatalf("node 0 halt = %d, want 7 (continue-local)", st.Halt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0 never halted")
		}
		time.Sleep(time.Millisecond)
	}
	e.Close() // release node 1's parked receive
	if _, err := e.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFailBeforeStartKillsOnArrival: a node's failed mark persists, so a
// process started (or migrated in) after the failure is dead on arrival
// until the node is resurrected.
func TestFailBeforeStartKillsOnArrival(t *testing.T) {
	prog, err := lang.Compile(helloSrc, Externs())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{})
	defer e.Close()
	e.Fail(3)
	if err := e.StartProcess(3, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	states, err := e.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := states[3]; !st.Killed {
		t.Fatalf("state = %+v, want killed on arrival", st)
	}
}

// TestQuiesceStepResume drives a node's lifecycle by hand: quiesce parks
// it at a quantum boundary, Step executes it synchronously to completion,
// Resume lets the driver observe the terminal state.
func TestQuiesceStepResume(t *testing.T) {
	src := `
int main() {
	int acc = 0;
	for (int i = 0; i < 200000; i += 1) { acc += 1; }
	return 7;
}`
	prog, err := lang.Compile(src, Externs())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Quantum: 500})
	defer e.Close()
	if err := e.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Quiesce(0); err != nil {
		t.Fatal(err)
	}
	st, err := e.Step(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusRunning {
		t.Fatalf("one quantum finished a 200k-iteration loop (status %s)", st)
	}
	for st == rt.StatusRunning {
		if st, err = e.Step(0, 100); err != nil {
			t.Fatal(err)
		}
	}
	if st != rt.StatusHalted {
		t.Fatalf("status = %s, want halted", st)
	}
	if err := e.Resume(0); err != nil {
		t.Fatal(err)
	}
	states, err := e.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if states[0].Status != rt.StatusHalted || states[0].Halt != 7 {
		t.Fatalf("state = %+v", states[0])
	}
}

// ringSrc is a miniature of the grid application: a ring all-exchange with
// speculation, periodic checkpoints, and MSG_ROLL-triggered retry. It is
// the failure-injection workload for the race-detector coverage below.
const ringSrc = `
int exchange(ptr buf, int me, int nodes, int step) {
	int right = (me + 1) % nodes;
	int left = (me + nodes - 1) % nodes;
	int s = msg_send(right, step, buf, 0, 1);
	if (s != 0) { return s; }
	return msg_recv(left, step, buf, 1, 1);
}

int main() {
	int nodes = getarg(0);
	int steps = getarg(1);
	int cki = getarg(2);
	int me = node_id();
	ptr buf = alloc(2);
	buf[0] = me + 1;
	int specid = speculate();
	int step = 1;
	while (step <= steps) {
		int err = exchange(buf, me, nodes, step);
		if (err == 1) { retry(specid); }
		if (err == 2) { return -1; }
		buf[0] = buf[0] + buf[1] * step;
		if (step % cki == 0) {
			commit(specid);
			ptr name = ck_name();
			migrate(name);
			msg_gc(step);
			specid = speculate();
		}
		step += 1;
	}
	commit(specid);
	return buf[0];
}`

// ringReference replays the ring computation sequentially in Go.
func ringReference(nodes, steps int) []int64 {
	vals := make([]int64, nodes)
	for n := range vals {
		vals[n] = int64(n) + 1
	}
	for step := 1; step <= steps; step++ {
		next := make([]int64, nodes)
		for n := range vals {
			left := (n + nodes - 1) % nodes
			next[n] = vals[n] + vals[left]*int64(step)
		}
		vals = next
	}
	return vals
}

func ringExterns() map[string]fir.ExternSig {
	sigs := Externs()
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	return sigs
}

func ringCkExtern(node int64) rt.Registry {
	return rt.Registry{
		"ck_name": {
			Sig: fir.ExternSig{Result: fir.TyPtr},
			Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
				return r.Heap().AllocString(fmt.Sprintf("checkpoint://ring-ck-%d", node))
			},
		},
	}
}

// notifyStore triggers a callback on every checkpoint write.
type notifyStore struct {
	migrate.Store
	mu    sync.Mutex
	puts  map[string]int
	onPut func(name string, count int)
}

func (s *notifyStore) Put(name string, data []byte) error {
	if err := s.Store.Put(name, data); err != nil {
		return err
	}
	s.mu.Lock()
	if s.puts == nil {
		s.puts = make(map[string]int)
	}
	s.puts[name]++
	n := s.puts[name]
	cb := s.onPut
	s.mu.Unlock()
	if cb != nil {
		cb(name, n)
	}
	return nil
}

// TestRingFailureRecovery runs the ring workload on a bounded worker pool,
// kills a node after its first checkpoint, resurrects it from the shared
// store, and requires the final values to match the sequential reference
// exactly. This test is the engine's race-detector workload: run it with
// `go test -race ./internal/cluster`.
func TestRingFailureRecovery(t *testing.T) {
	const (
		nodes = 4
		steps = 12
		cki   = 3
	)
	prog, err := lang.Compile(ringSrc, ringExterns())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store := &notifyStore{Store: NewMemStore()}
			// A small quantum so the kill lands mid-run: the whole ring
			// program fits inside one default 20k-step quantum.
			e := NewEngine(EngineConfig{Store: store, Workers: workers, Quantum: 500})
			defer e.Close()

			const victim = int64(2)
			var failOnce sync.Once
			resurrected := make(chan error, 1)
			store.onPut = func(name string, count int) {
				if name != fmt.Sprintf("ring-ck-%d", victim) || count < 1 {
					return
				}
				failOnce.Do(func() {
					e.Fail(victim)
					go func() {
						time.Sleep(10 * time.Millisecond)
						resurrected <- e.Resurrect(victim, fmt.Sprintf("ring-ck-%d", victim), ringCkExtern(victim))
					}()
				})
			}

			args := []int64{nodes, steps, cki}
			for n := int64(0); n < nodes; n++ {
				if err := e.StartProcess(n, prog, args, ringCkExtern(n)); err != nil {
					t.Fatal(err)
				}
			}
			// The resurrection must be in flight before Wait: with the whole
			// run only a few quanta long, every node (including the doomed
			// incarnation) can go idle before the restart delay elapses.
			if err := <-resurrected; err != nil {
				t.Fatalf("resurrection: %v", err)
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
					t.Fatalf("node %d halt = %d, want %d (all want: %v)", n, st.Halt, want[n], want)
				}
			}
			if e.Router.Stats().Rolls == 0 {
				t.Fatal("no MSG_ROLL deliveries: survivors never rolled back")
			}
		})
	}
}
