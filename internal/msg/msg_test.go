package msg

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
)

func iv(vs ...int64) []heap.Value {
	out := make([]heap.Value, len(vs))
	for i, v := range vs {
		out[i] = heap.IntVal(v)
	}
	return out
}

func TestSendRecv(t *testing.T) {
	r := NewRouter()
	if err := r.Send(1, 2, 5, iv(10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	got, st := r.Recv(2, 1, 5)
	if st != StatusOK {
		t.Fatalf("status = %d", st)
	}
	if len(got) != 3 || got[1].I != 20 {
		t.Fatalf("payload = %v", got)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	r := NewRouter()
	done := make(chan int64, 1)
	go func() {
		_, st := r.Recv(2, 1, 7)
		done <- st
	}()
	select {
	case st := <-done:
		t.Fatalf("recv returned %d before send", st)
	case <-time.After(20 * time.Millisecond):
	}
	if err := r.Send(1, 2, 7, iv(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-done:
		if st != StatusOK {
			t.Fatalf("status = %d", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv never woke")
	}
}

func TestRecvNonDestructive(t *testing.T) {
	r := NewRouter()
	_ = r.Send(1, 2, 3, iv(42))
	for i := 0; i < 3; i++ {
		got, st := r.Recv(2, 1, 3)
		if st != StatusOK || got[0].I != 42 {
			t.Fatalf("read %d: %v %d", i, got, st)
		}
	}
}

func TestFailDeliversRollOncePerNode(t *testing.T) {
	r := NewRouter()
	_ = r.Send(1, 2, 1, iv(5))
	r.Fail(3)
	// First recv observes the epoch: MSG_ROLL.
	if _, st := r.Recv(2, 1, 1); st != StatusRoll {
		t.Fatalf("first recv status = %d, want MSG_ROLL", st)
	}
	// Second recv gets the message.
	if _, st := r.Recv(2, 1, 1); st != StatusOK {
		t.Fatalf("second recv status = %d, want OK", st)
	}
	// A different node also sees the epoch once.
	_ = r.Send(2, 4, 1, iv(6))
	if _, st := r.Recv(4, 2, 1); st != StatusRoll {
		t.Fatal("node 4 missed the rollback epoch")
	}
	if _, st := r.Recv(4, 2, 1); st != StatusOK {
		t.Fatal("node 4 did not recover after roll")
	}
}

func TestRestoreSkipsEpochForResurrected(t *testing.T) {
	r := NewRouter()
	r.Fail(1)
	r.Restore(1)
	_ = r.Send(2, 1, 9, iv(7))
	if _, st := r.Recv(1, 2, 9); st != StatusOK {
		t.Fatalf("resurrected node got status %d, want OK (already at rollback point)", st)
	}
	if r.Failed(1) {
		t.Fatal("node still marked failed after Restore")
	}
}

func TestGCInboundOnly(t *testing.T) {
	r := NewRouter()
	_ = r.Send(1, 2, 3, iv(1)) // inbound to 2, old
	_ = r.Send(1, 2, 9, iv(2)) // inbound to 2, new
	_ = r.Send(2, 1, 3, iv(3)) // outbound from 2, old — must survive
	r.GC(2, 5)
	if _, st := r.Recv(1, 2, 3); st != StatusOK {
		t.Fatal("outbound message was GCed")
	}
	if _, st := r.Recv(2, 1, 9); st != StatusOK {
		t.Fatal("new inbound message was GCed")
	}
	done := make(chan int64, 1)
	go func() {
		_, st := r.Recv(2, 1, 3)
		done <- st
	}()
	select {
	case st := <-done:
		if st != StatusClosed {
			t.Fatalf("old inbound message still delivered (status %d)", st)
		}
	case <-time.After(30 * time.Millisecond):
		r.Close()
		if st := <-done; st != StatusClosed {
			t.Fatalf("status = %d", st)
		}
	}
}

func TestCloseReleasesReceivers(t *testing.T) {
	r := NewRouter()
	var wg sync.WaitGroup
	results := make(chan int64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			_, st := r.Recv(n, 99, 1)
			results <- st
		}(int64(i))
	}
	time.Sleep(10 * time.Millisecond)
	r.Close()
	wg.Wait()
	close(results)
	for st := range results {
		if st != StatusClosed {
			t.Fatalf("status = %d, want closed", st)
		}
	}
	if err := r.Send(0, 1, 1, iv(1)); err == nil {
		t.Fatal("send on closed router accepted")
	}
}

func TestSendOverwriteIdempotent(t *testing.T) {
	r := NewRouter()
	_ = r.Send(1, 2, 4, iv(1))
	_ = r.Send(1, 2, 4, iv(1)) // deterministic re-send
	got, st := r.Recv(2, 1, 4)
	if st != StatusOK || got[0].I != 1 {
		t.Fatalf("got %v %d", got, st)
	}
}

func TestTryRecv(t *testing.T) {
	r := NewRouter()
	// Nothing available: ok=false, caller may park.
	if _, _, ok := r.TryRecv(2, 1, 5); ok {
		t.Fatal("TryRecv reported a status on an empty mailbox")
	}
	_ = r.Send(1, 2, 5, iv(9))
	got, st, ok := r.TryRecv(2, 1, 5)
	if !ok || st != StatusOK || len(got) != 1 || got[0].I != 9 {
		t.Fatalf("TryRecv = %v %d %v", got, st, ok)
	}
	// A pending epoch outranks a deliverable message, exactly as in Recv.
	r.Fail(7)
	if _, st, ok := r.TryRecv(2, 1, 5); !ok || st != StatusRoll {
		t.Fatalf("TryRecv after Fail = %d %v, want MSG_ROLL", st, ok)
	}
	r.Close()
	if _, st, ok := r.TryRecv(2, 1, 5); !ok || st != StatusClosed {
		t.Fatalf("TryRecv after Close = %d %v, want closed", st, ok)
	}
}

func TestSendBatch(t *testing.T) {
	r := NewRouter()
	batch := map[int64][]heap.Value{1: iv(10), 2: iv(20, 21), 3: iv(30)}
	var parts []byte
	for tag := int64(1); tag <= 3; tag++ {
		var err error
		if parts, err = AppendPart(parts, tag, batch[tag]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SendBatch(1, 2, parts); err != nil {
		t.Fatal(err)
	}
	for tag, words := range batch {
		got, st := r.Recv(2, 1, tag)
		if st != StatusOK || len(got) != len(words) || got[0].I != words[0].I {
			t.Fatalf("tag %d: %v %d", tag, got, st)
		}
	}
	s := r.Stats()
	if s.Sends != 3 || s.WordsSent != 4 {
		t.Fatalf("stats = %+v, want 3 sends / 4 words", s)
	}
}

func TestStatsCounting(t *testing.T) {
	r := NewRouter()
	_ = r.Send(1, 2, 1, iv(1, 2))
	_, _ = r.Recv(2, 1, 1)
	r.Fail(5)
	_, _ = r.Recv(2, 1, 1) // MSG_ROLL
	r.GC(2, 99)
	s := r.Stats()
	if s.Sends != 1 || s.Recvs != 1 || s.Rolls != 1 || s.Failures != 1 || s.GCed != 1 || s.WordsSent != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMailboxReusesGCedParts: once a window of tags has been GCed, the
// next window of new tags of the same size is stored in the buffers of
// the dropped parts: sending and retiring it allocates nothing.
func TestMailboxReusesGCedParts(t *testing.T) {
	const window = 50
	r := NewRouter()
	words := make([]heap.Value, 64)
	for i := range words {
		words[i] = heap.FloatVal(float64(i) / 3)
	}
	var part []byte
	next := int64(0)
	sendWindow := func() {
		for i := 0; i < window; i++ {
			var err error
			if part, err = AppendPart(part[:0], next, words); err == nil {
				err = r.SendBatch(1, 2, part)
			}
			if err != nil {
				t.Fatal(err)
			}
			next++
		}
		r.GC(2, next)
	}
	sendWindow()
	if allocs := testing.AllocsPerRun(20, sendWindow); allocs != 0 {
		t.Fatalf("a window of new tags after a GC allocates %.2f objects, want 0", allocs)
	}
	if s := r.Stats(); s.GCed != uint64(next) {
		t.Fatalf("GCed %d parts, want %d", s.GCed, next)
	}
}

// loopback is an uplink into another router: what a worker's frames do
// to the mailbox at the far end, without the sockets.
type loopback struct{ to *Router }

func (l loopback) SendParts(src, dst int64, parts []byte, n int) error {
	return l.to.SendBatch(src, dst, parts)
}

func (l loopback) GC(node, below int64) error { return nil }

// TestSendRecvKeepsEveryBit: Send then Recv returns every word with its
// kind and bits — NaN payloads, -0.0, infinities, the int extremes and
// random bit patterns — in process and through an uplink.
func TestSendRecvKeepsEveryBit(t *testing.T) {
	special := []heap.Value{
		heap.FloatVal(math.Float64frombits(0x7ff0000000000001)), // signalling NaN
		heap.FloatVal(math.Float64frombits(0xfff8dead0000beef)), // negative quiet NaN with a payload
		heap.FloatVal(math.Copysign(0, -1)),
		heap.FloatVal(math.Inf(-1)),
		heap.FloatVal(math.SmallestNonzeroFloat64),
		heap.IntVal(math.MinInt64),
		heap.IntVal(math.MaxInt64),
		heap.IntVal(-1),
	}
	inproc := NewRouter()
	remote := NewRouter()
	local := NewRouter()
	local.SetLocal(1)
	local.SetUplink(loopback{remote})
	for _, c := range []struct {
		name     string
		from, to *Router
	}{{"in process", inproc, inproc}, {"through an uplink", local, remote}} {
		rng := rand.New(rand.NewSource(1))
		for tag := int64(0); tag < 300; tag++ {
			words := make([]heap.Value, rng.Intn(20))
			for i := range words {
				switch k := rng.Intn(3); {
				case k == 0:
					words[i] = special[rng.Intn(len(special))]
				case k == 1:
					words[i] = heap.IntVal(int64(rng.Uint64()))
				default:
					words[i] = heap.FloatVal(math.Float64frombits(rng.Uint64()))
				}
			}
			if err := c.from.Send(1, 2, tag, words); err != nil {
				t.Fatal(err)
			}
			got, st := c.to.Recv(2, 1, tag)
			if st != StatusOK || len(got) != len(words) {
				t.Fatalf("%s: tag %d: status %d, %d words, want %d", c.name, tag, st, len(got), len(words))
			}
			for i, w := range words {
				g := got[i]
				if g.Kind != w.Kind || g.I != w.I || g.Off != w.Off || math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("%s: tag %d word %d: %#v, sent %#v", c.name, tag, i, g, w)
				}
			}
		}
	}
}
