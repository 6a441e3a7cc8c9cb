package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/msg"
	"repro/internal/rt"
	"repro/internal/store"
	"repro/internal/wire"
)

func newHub(t *testing.T) *Hub {
	t.Helper()
	h, err := Listen("127.0.0.1:0", cluster.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// joinNode builds the worker-side stack without an engine: a router
// hosting `node` with the client as its uplink.
func joinNode(t *testing.T, h *Hub, node int64, cfg ClientConfig) (*msg.Router, *Client) {
	t.Helper()
	r := msg.NewRouter()
	r.SetLocal(node)
	cfg.Addr = h.Addr()
	cfg.Node = node
	cfg.Router = r
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r.SetUplink(c)
	return r, c
}

func iv(vs ...int64) []heap.Value {
	out := make([]heap.Value, len(vs))
	for i, v := range vs {
		out[i] = heap.IntVal(v)
	}
	return out
}

func recvWithin(t *testing.T, r *msg.Router, dst, src, tag int64, d time.Duration) []heap.Value {
	t.Helper()
	type res struct {
		words  []heap.Value
		status int64
	}
	ch := make(chan res, 1)
	go func() {
		w, st := r.Recv(dst, src, tag)
		ch <- res{w, st}
	}()
	select {
	case got := <-ch:
		if got.status != msg.StatusOK {
			t.Fatalf("recv(%d<-%d tag %d) status %d", dst, src, tag, got.status)
		}
		return got.words
	case <-time.After(d):
		t.Fatalf("recv(%d<-%d tag %d) timed out", dst, src, tag)
		return nil
	}
}

// TestRelayBuffersForLateJoiner: messages sent before the destination's
// worker connects — or re-sent as duplicates — are buffered keyed at the
// hub and replayed on HELLO, with the latest payload per key winning.
func TestRelayBuffersForLateJoiner(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{})

	// Node 2 is not connected: these buffer at the hub. The re-send of
	// tag 7 models a deterministic replay (identical key, refreshed
	// content stands in for "identical content" to make the overwrite
	// observable).
	if err := r1.Send(1, 2, 7, iv(10)); err != nil {
		t.Fatal(err)
	}
	if err := r1.Send(1, 2, 7, iv(11)); err != nil {
		t.Fatal(err)
	}
	if err := r1.Send(1, 2, 8, iv(20, 21)); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool { return len(h.BufferedTags(2, 1)) == 2 }, "hub never buffered both tags")

	r2, _ := joinNode(t, h, 2, ClientConfig{})
	if got := recvWithin(t, r2, 2, 1, 7, 5*time.Second); got[0].I != 11 {
		t.Fatalf("tag 7 = %v, want the overwritten payload 11", got)
	}
	if got := recvWithin(t, r2, 2, 1, 8, 5*time.Second); len(got) != 2 || got[1].I != 21 {
		t.Fatalf("tag 8 = %v", got)
	}
}

// TestLiveRelayBothDirections: with both workers connected, sends cross
// the hub and wake parked remote receivers.
func TestLiveRelayBothDirections(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{})
	r2, _ := joinNode(t, h, 2, ClientConfig{})

	// The receiver parks first — OnBlock fires exactly when it does, so
	// the send below provably lands on a parked receiver (no sleep race).
	parked := make(chan struct{})
	done := make(chan []heap.Value, 1)
	go func() {
		w, _ := r2.RecvHooked(2, 1, 5, &msg.BlockHooks{OnBlock: func() { close(parked) }})
		done <- w
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never parked")
	}
	if err := r1.Send(1, 2, 5, iv(42)); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-done:
		if len(w) != 1 || w[0].I != 42 {
			t.Fatalf("payload %v", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked remote receiver never woke")
	}
	if err := r2.Send(2, 1, 6, iv(43)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, r1, 1, 2, 6, 5*time.Second); got[0].I != 43 {
		t.Fatalf("reverse payload %v", got)
	}
}

// TestFailBroadcastsRollAndKillsVictim: Fail advances the epoch (MSG_ROLL
// exactly once at every survivor), orders the victim to die, and a
// resurrection HELLO joins at the current epoch without re-observing it.
func TestFailBroadcastsRollAndKillsVictim(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{})
	var victimKilled atomic.Bool
	joinNode(t, h, 2, ClientConfig{OnFail: func() { victimKilled.Store(true) }})

	h.Fail(2)

	waitFor(t, func() bool { return victimKilled.Load() }, "victim never told to die")
	waitFor(t, func() bool { return r1.Epoch() == 1 }, "survivor epoch never advanced")
	if _, st := r1.Recv(1, 2, 1); st != msg.StatusRoll {
		t.Fatalf("survivor first recv status %d, want MSG_ROLL", st)
	}

	// Resurrected incarnation: a fresh router joining as node 2 with the
	// resurrect flag, which clears the failed mark.
	r2b, _ := joinNode(t, h, 2, ClientConfig{Resurrect: true})
	if r2b.Epoch() != 1 {
		t.Fatalf("resurrected epoch %d, want 1", r2b.Epoch())
	}
	r2b.Restore(2) // checkpoint is the rollback point: seen = epoch
	if _, st, ok := r2b.TryRecv(2, 1, 99); ok {
		t.Fatalf("resurrected node re-observed the epoch (status %d)", st)
	}
}

// TestZombieRejoinIsReKilled: a non-resurrection incarnation of a failed
// node reconnecting (say the kill order was lost in a network blip) must
// be ordered to die again, not re-admitted — the node would otherwise
// briefly have two live processes once the real resurrection arrives.
func TestZombieRejoinIsReKilled(t *testing.T) {
	h := newHub(t)
	joinNode(t, h, 2, ClientConfig{})
	h.Fail(2)

	var zombieKilled atomic.Bool
	joinNode(t, h, 2, ClientConfig{OnFail: func() { zombieKilled.Store(true) }})
	waitFor(t, func() bool { return zombieKilled.Load() }, "zombie rejoin was admitted instead of re-killed")

	h.mu.Lock()
	stillFailed := h.failed[2]
	h.mu.Unlock()
	if !stillFailed {
		t.Fatal("zombie rejoin cleared the failed mark")
	}
}

// TestWorkerDialsAdvertisedStore: WELCOME advertises the store server
// beside the hub; StoreAddr joins the host the worker dialed with that
// port, and a Put through it lands in the hub's backing store.
func TestWorkerDialsAdvertisedStore(t *testing.T) {
	st := cluster.NewMemStore()
	h, err := Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	_, c := joinNode(t, h, 1, ClientConfig{})

	host, port, err := net.SplitHostPort(c.StoreAddr())
	if err != nil {
		t.Fatal(err)
	}
	_, hubPort, _ := net.SplitHostPort(h.Addr())
	if host != "127.0.0.1" || port == "0" || port == hubPort {
		t.Fatalf("StoreAddr = %s, hub at %s", c.StoreAddr(), h.Addr())
	}
	if c.StoreAddr() != h.store.Addr() {
		t.Fatalf("StoreAddr = %s, store server at %s", c.StoreAddr(), h.store.Addr())
	}

	r := store.DialRemote(c.StoreAddr())
	defer r.Close()
	if err := r.Put("ck-1", []byte("image")); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get("ck-1"); err != nil || string(got) != "image" {
		t.Fatalf("hub's backing store holds %q, %v", got, err)
	}
}

// TestRemoteStore: the whole store protocol works against the address a
// worker learns in WELCOME, and dropping the hub's message links leaves
// the store session standing — the store is served beside the hub, not
// through it.
func TestRemoteStore(t *testing.T) {
	h := newHub(t)
	_, c := joinNode(t, h, 1, ClientConfig{})
	s := store.DialRemote(c.StoreAddr())
	defer s.Close()
	if err := s.Put("grid-ck-0", []byte("image-bytes")); err != nil {
		t.Fatal(err)
	}
	h.DropLinks()
	got, err := s.Get("grid-ck-0")
	if err != nil || string(got) != "image-bytes" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "grid-ck-0" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if _, err := s.Get("ghost"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get(missing) = %v, want os.ErrNotExist", err)
	}
	if err := s.Delete("grid-ck-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("grid-ck-0"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get after Delete = %v, want os.ErrNotExist", err)
	}
	if err := s.Delete("ghost"); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31 >> 7)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("1 MiB round trip: %d bytes, %v", len(got), err)
	}
}

// TestReconnectReplaysBothSides: a network blip (every connection
// dropped) is invisible — the client redials, replays its outbound keyed
// buffer, and the hub replays the inbound one.
func TestReconnectReplaysBothSides(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{RetryBase: 5 * time.Millisecond})
	r2, _ := joinNode(t, h, 2, ClientConfig{RetryBase: 5 * time.Millisecond})

	if err := r1.Send(1, 2, 1, iv(100)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, r2, 2, 1, 1, 5*time.Second)

	h.DropLinks()

	// The next send goes through a redial; tag 1 is replayed alongside.
	if err := r1.Send(1, 2, 2, iv(200)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, r2, 2, 1, 2, 10*time.Second); got[0].I != 200 {
		t.Fatalf("post-blip payload %v", got)
	}
	// And the pre-blip message is still (re)readable: idempotent replay.
	if got := recvWithin(t, r2, 2, 1, 1, 10*time.Second); got[0].I != 100 {
		t.Fatalf("replayed payload %v", got)
	}
}

// TestCrossProcessHandoff: a process executing migrate("node://5") on one
// engine is packed, shipped through the hub, and adopted by the engine
// hosting node 5 — heap intact, node_id rebound — exactly like the
// in-process handoff, but across two independent router/engine stacks.
func TestCrossProcessHandoff(t *testing.T) {
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
	prog, err := lang.Compile(handoffSrc, cluster.Externs())
	if err != nil {
		t.Fatal(err)
	}
	h := newHub(t)

	// Worker B: hosts node 5, idle, ready to adopt.
	routerB := msg.NewRouter()
	routerB.SetLocal(5)
	adopted := make(chan error, 1)
	var engineB *cluster.Engine
	engineReady := make(chan struct{})
	clientB, err := Dial(ClientConfig{
		Addr: h.Addr(), Node: 5, Router: routerB,
		OnAdopt: func(dst, seen int64, img *wire.Image) (func(), error) {
			<-engineReady
			start, err := engineB.Adopt(dst, img, seen, nil)
			adopted <- err
			return start, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()
	routerB.SetUplink(clientB)
	engineB = cluster.NewEngine(cluster.EngineConfig{
		Router: routerB, Store: store.DialRemote(clientB.StoreAddr()),
	})
	defer engineB.Close()
	close(engineReady)

	// Worker A: hosts node 0 and runs the migrating process.
	routerA := msg.NewRouter()
	routerA.SetLocal(0)
	clientA, err := Dial(ClientConfig{Addr: h.Addr(), Node: 0, Router: routerA})
	if err != nil {
		t.Fatal(err)
	}
	defer clientA.Close()
	routerA.SetUplink(clientA)
	engineA := cluster.NewEngine(cluster.EngineConfig{
		Router: routerA, Store: store.DialRemote(clientA.StoreAddr()),
		RemoteHandoff: clientA.Handoff,
	})
	defer engineA.Close()
	if err := engineA.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}

	statesA, err := engineA.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := statesA[0]; st.Status != rt.StatusMigrated {
		t.Fatalf("node 0 = %+v, want migrated", st)
	}
	select {
	case aerr := <-adopted:
		if aerr != nil {
			t.Fatalf("adoption failed: %v", aerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("image never adopted")
	}
	statesB, err := engineB.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := statesB[5]; st == nil || st.Status != rt.StatusHalted || st.Halt != 46 {
		t.Fatalf("node 5 = %+v, want halt 46 (heap word survived, node id rebound)", st)
	}
}

// TestHandoffToUnhostedNodeContinuesLocal: migrating to a node no worker
// hosts must fail the migration and continue the process locally
// (§4.2.1's failed-migration semantics, across the wire).
func TestHandoffToUnhostedNodeContinuesLocal(t *testing.T) {
	const src = `
int main() {
	migrate("node://9");
	return node_id() * 100 + 7;
}`
	prog, err := lang.Compile(src, cluster.Externs())
	if err != nil {
		t.Fatal(err)
	}
	h := newHub(t)
	router := msg.NewRouter()
	router.SetLocal(0)
	client, err := Dial(ClientConfig{Addr: h.Addr(), Node: 0, Router: router})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	router.SetUplink(client)
	e := cluster.NewEngine(cluster.EngineConfig{
		Router: router, Store: store.DialRemote(client.StoreAddr()), RemoteHandoff: client.Handoff,
	})
	defer e.Close()
	if err := e.StartProcess(0, prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	states, err := e.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := states[0]; st.Status != rt.StatusHalted || st.Halt != 7 {
		t.Fatalf("node 0 = %+v, want local halt 7", st)
	}
}

// TestHubRefusesHandoffFromFailedNode: a worker that has not yet read
// its kill order cannot hand its node's state to another worker; the
// state dies with the node, as it does in process.
func TestHubRefusesHandoffFromFailedNode(t *testing.T) {
	h := newHub(t)
	var adopted atomic.Int32
	joinNode(t, h, 5, ClientConfig{
		OnAdopt: func(dst, seen int64, img *wire.Image) (func(), error) {
			adopted.Add(1)
			return func() {}, nil
		},
	})
	_, c := joinNode(t, h, 0, ClientConfig{})
	h.Fail(0)
	hp := heap.New(heap.Config{})
	img := &wire.Image{
		Code:  wire.CodePart{Name: "p", Program: []byte("prog"), TableLen: hp.TableLen()},
		State: wire.StatePart{Heap: hp.Snapshot()},
	}
	err := c.Handoff(0, 5, img, 0)
	if err == nil || !strings.Contains(err.Error(), "node 0 is failed") {
		t.Fatalf("Handoff from a failed node = %v, want refused", err)
	}
	if n := adopted.Load(); n != 0 {
		t.Fatalf("the image was adopted %d times", n)
	}
}

// TestExitSurvivesInboundTraffic: a worker that reports its exit and
// closes while frames for it are still arriving, and while the hub is
// still reading what it sent before, must not lose the exit.
// A socket closed with unread inbound bytes is reset, and the reset
// throws away whatever the hub had not yet read.
func TestExitSurvivesInboundTraffic(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{})
	const workers = 40
	for i := int64(0); i < workers; i++ {
		node := 100 + i
		r := msg.NewRouter()
		r.SetLocal(node)
		c, err := Dial(ClientConfig{Addr: h.Addr(), Node: node, Router: r})
		if err != nil {
			t.Fatal(err)
		}
		r.SetUplink(c)
		flooded := make(chan struct{})
		go func() {
			defer close(flooded)
			for tag := int64(0); tag < 200; tag++ {
				_ = r1.Send(1, node, tag, iv(tag))
			}
		}()
		// A backlog ahead of the exit keeps the hub's reader behind.
		for tag := int64(0); tag < 300; tag++ {
			if err := r.Send(node, 1, tag, iv(tag)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Exit(Result{Node: node, Halt: node}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		<-flooded
	}
	res, err := h.WaitResults(workers, 10*time.Second)
	if err != nil {
		t.Fatalf("%v: the hub lost exits of workers that closed under inbound traffic", err)
	}
	for node, r := range res {
		if r.Halt != node {
			t.Fatalf("node %d reported halt %d", node, r.Halt)
		}
	}
}

// TestExitAndWaitResults: workers report final states; WaitResults
// aggregates them.
func TestExitAndWaitResults(t *testing.T) {
	h := newHub(t)
	_, c1 := joinNode(t, h, 1, ClientConfig{})
	_, c2 := joinNode(t, h, 2, ClientConfig{})
	if err := c1.Exit(Result{Node: 1, Status: rt.StatusHalted, Halt: 11, Rolls: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Exit(Result{Node: 2, Status: rt.StatusHalted, Halt: 22}); err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitResults(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Halt != 11 || res[1].Rolls != 2 || res[2].Halt != 22 {
		t.Fatalf("results = %+v", res)
	}
	if _, err := h.WaitResults(3, 50*time.Millisecond); err == nil {
		t.Fatal("WaitResults(3) should time out with 2 results")
	}
}

// TestUplinkErrorSurfacesAsClosed: when the hub is gone for good, a send
// eventually errors instead of hanging forever.
func TestUplinkErrorSurfacesAsClosed(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{DialAttempts: 2, RetryBase: time.Millisecond})
	h.Close()
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if lastErr = r1.Send(1, 2, 1, iv(1)); lastErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("sends kept succeeding with the hub gone")
	}
	if errors.Is(lastErr, msg.ErrClosed) {
		t.Fatalf("send failed with the router's own closed error; want a transport error, got %v", lastErr)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestMultipleSequentialFailuresReplayAndGC: the hub's keyed
// store-and-forward buffer survives several failure/resurrection cycles
// in one run. Two different nodes fail in sequence; each resurrected
// incarnation's HELLO replays exactly the keyed messages its mailbox
// would still hold in-process — minus what the receiver's msg_gc pruned
// between the failures — and re-sends replay idempotently.
func TestMultipleSequentialFailuresReplayAndGC(t *testing.T) {
	h := newHub(t)
	r1, _ := joinNode(t, h, 1, ClientConfig{})
	r2, _ := joinNode(t, h, 2, ClientConfig{})

	// Steps 1..4 flow both ways before anything fails.
	for tag := int64(1); tag <= 4; tag++ {
		if err := r1.Send(1, 2, tag, iv(100+tag)); err != nil {
			t.Fatal(err)
		}
		if err := r2.Send(2, 1, tag, iv(200+tag)); err != nil {
			t.Fatal(err)
		}
	}
	recvWithin(t, r2, 2, 1, 4, 5*time.Second)
	recvWithin(t, r1, 1, 2, 4, 5*time.Second)

	// Node 2 commits past step 2 and GCs; the hub's buffer for it prunes.
	r2.GC(2, 3)
	waitFor(t, func() bool { return len(h.BufferedTags(2, 1)) == 2 }, // tags 3, 4 remain
		"hub never pruned node 2's buffer after GC")

	// Failure 1: node 2 dies; its resurrected incarnation replays only
	// the un-GCed keys.
	h.Fail(2)
	if _, st := r1.Recv(1, 2, 99); st != msg.StatusRoll {
		t.Fatalf("survivor recv status %d, want MSG_ROLL", st)
	}
	r2b, _ := joinNode(t, h, 2, ClientConfig{Resurrect: true})
	r2b.Restore(2)
	if got := recvWithin(t, r2b, 2, 1, 3, 5*time.Second); got[0].I != 103 {
		t.Fatalf("replayed tag 3 = %v, want 103", got)
	}
	if got := recvWithin(t, r2b, 2, 1, 4, 5*time.Second); got[0].I != 104 {
		t.Fatalf("replayed tag 4 = %v, want 104", got)
	}
	if _, _, ok := r2b.TryRecv(2, 1, 2); ok {
		t.Fatal("GCed tag 2 was replayed to the resurrected node")
	}

	// The resurrected incarnation re-executes and re-sends steps its
	// predecessor already sent (identical keys — deterministic replay),
	// plus new progress.
	for tag := int64(3); tag <= 5; tag++ {
		if err := r2b.Send(2, 1, tag, iv(200+tag)); err != nil {
			t.Fatal(err)
		}
	}

	// Failure 2, while the first resurrection is already live: now node 1
	// dies and comes back. Its replay must hold node 2's re-sent keys.
	h.Fail(1)
	if _, st := r2b.Recv(2, 1, 99); st != msg.StatusRoll {
		t.Fatalf("second-failure survivor recv status %d, want MSG_ROLL", st)
	}
	if got := h.Epoch(); got != 2 {
		t.Fatalf("epoch after two failures = %d, want 2", got)
	}
	r1b, _ := joinNode(t, h, 1, ClientConfig{Resurrect: true})
	r1b.Restore(1)
	for tag := int64(1); tag <= 5; tag++ {
		if got := recvWithin(t, r1b, 1, 2, tag, 5*time.Second); got[0].I != 200+tag {
			t.Fatalf("after second resurrection, tag %d = %v, want %d", tag, got, 200+tag)
		}
	}

	// Both resurrected incarnations keep exchanging: the run converges.
	if err := r1b.Send(1, 2, 5, iv(105)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, r2b, 2, 1, 5, 5*time.Second); got[0].I != 105 {
		t.Fatalf("post-recovery tag 5 = %v, want 105", got)
	}
	// Neither incarnation re-observes an epoch it already joined.
	if _, st, ok := r1b.TryRecv(1, 2, 99); ok && st == msg.StatusRoll {
		t.Fatal("resurrected node 1 re-observed a stale epoch")
	}
}

// TestResurrectionRetiresTheLiveIncarnation: when a resurrection joins
// while the incarnation it replaces is still connected (its kill order
// not yet read), the old one is ordered to die and gives the node up. It
// must not find its connection closed under the order, redial as a
// resurrection itself and take the node back.
func TestResurrectionRetiresTheLiveIncarnation(t *testing.T) {
	h := newHub(t)
	var oldKilled atomic.Int32
	joinNode(t, h, 2, ClientConfig{Resurrect: true, RetryBase: time.Millisecond,
		OnFail: func() { oldKilled.Add(1) }})
	var newKilled atomic.Bool
	joinNode(t, h, 2, ClientConfig{Resurrect: true, RetryBase: time.Millisecond,
		OnFail: func() { newKilled.Store(true) }})
	waitFor(t, func() bool { return oldKilled.Load() > 0 }, "replaced incarnation never told to die")

	// The node stays with the newcomer: no registration of the old one
	// follows, so nothing ever orders the newcomer dead.
	time.Sleep(50 * time.Millisecond)
	if newKilled.Load() {
		t.Fatal("the resurrection was itself ordered to die: the two incarnations are trading the node")
	}
	if !h.WaitSession(2, time.Second) {
		t.Fatal("node 2 has no session")
	}
}

// TestFailedNodeReportsNothing: a node that stands failed is dead to the
// coordinator, so a final state its last incarnation still manages to
// send is not a result; the resurrected incarnation's is.
func TestFailedNodeReportsNothing(t *testing.T) {
	h := newHub(t)
	_, zombie := joinNode(t, h, 2, ClientConfig{})
	h.Fail(2)
	if err := zombie.Exit(Result{Node: 2, Status: rt.StatusHalted, Halt: 1}); err != nil {
		t.Fatal(err)
	}
	if res, err := h.WaitResults(1, 100*time.Millisecond); err == nil {
		t.Fatalf("a failed node's report was kept: %+v", res)
	}
	_, revived := joinNode(t, h, 2, ClientConfig{Resurrect: true})
	if err := revived.Exit(Result{Node: 2, Status: rt.StatusHalted, Halt: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := h.WaitResults(1, 10*time.Second)
	if err != nil || res[2].Halt != 2 {
		t.Fatalf("results = %+v, %v; want the resurrected incarnation's", res, err)
	}
}

// TestAdoptionIsAcknowledgedBeforeItStarts: the source's Handoff returns —
// the acknowledgement has crossed the hub — while the adopter's start
// function has yet to be called. Were start called first, an adopted
// process could get this worker killed (a fault script keyed on its first
// checkpoint) with the acknowledgement unsent, and the source would carry
// on with a second copy.
func TestAdoptionIsAcknowledgedBeforeItStarts(t *testing.T) {
	h := newHub(t)
	acked := make(chan struct{})
	started := make(chan struct{})
	joinNode(t, h, 5, ClientConfig{
		OnAdopt: func(dst, seen int64, img *wire.Image) (func(), error) {
			return func() {
				select {
				case <-acked:
				case <-time.After(10 * time.Second):
					t.Error("start ran, and 10s later the source still had no acknowledgement")
				}
				close(started)
			}, nil
		},
	})
	_, src := joinNode(t, h, 0, ClientConfig{})
	img := &wire.Image{State: wire.StatePart{Heap: heap.New(heap.Config{}).Snapshot()}}
	if err := src.Handoff(0, 5, img, 0); err != nil {
		t.Fatal(err)
	}
	close(acked)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the adopter never started the process")
	}
	if !h.WaitSession(5, time.Second) {
		t.Fatal("adopter does not own node 5")
	}
}
