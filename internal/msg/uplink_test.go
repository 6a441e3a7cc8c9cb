package msg

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
)

// sent is one forwarded part, decoded.
type sent struct {
	tag   int64
	words []heap.Value
}

// recordingUplink captures forwarded traffic for assertions.
type recordingUplink struct {
	mu    sync.Mutex
	sends []struct {
		src, dst int64
		batch    []sent
	}
	gcs []struct{ node, below int64 }
	err error
}

func (u *recordingUplink) SendParts(src, dst int64, parts []byte, n int) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	var batch []sent
	for len(parts) > 0 {
		tag, part, rest, err := SplitPart(parts)
		if err != nil {
			return err
		}
		batch = append(batch, sent{tag, decodePart(nil, part)})
		parts = rest
	}
	if len(batch) != n {
		return fmt.Errorf("%d parts forwarded as %d", len(batch), n)
	}
	u.sends = append(u.sends, struct {
		src, dst int64
		batch    []sent
	}{src, dst, batch})
	return u.err
}

func (u *recordingUplink) GC(node, below int64) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.gcs = append(u.gcs, struct{ node, below int64 }{node, below})
	return nil
}

func TestUplinkForwardsNonLocalSends(t *testing.T) {
	r := NewRouter()
	up := &recordingUplink{}
	r.SetLocal(1)
	r.SetUplink(up)

	// dst 1 is local: delivered in-process, never forwarded.
	if err := r.Send(2, 1, 7, iv(4)); err != nil {
		t.Fatal(err)
	}
	if got, st := r.Recv(1, 2, 7); st != StatusOK || got[0].I != 4 {
		t.Fatalf("local delivery: status %d, payload %v", st, got)
	}

	// dst 9 is remote: forwarded through the uplink.
	if err := r.Send(1, 9, 3, iv(5, 6)); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.sends) != 1 {
		t.Fatalf("uplink saw %d sends, want 1", len(up.sends))
	}
	s := up.sends[0]
	if s.src != 1 || s.dst != 9 || len(s.batch) != 1 || s.batch[0].tag != 3 || len(s.batch[0].words) != 2 {
		t.Fatalf("forwarded send = %+v", s)
	}
}

func TestUplinkGCPropagates(t *testing.T) {
	r := NewRouter()
	up := &recordingUplink{}
	r.SetLocal(1)
	r.SetUplink(up)
	if err := r.Send(2, 1, 1, iv(1)); err != nil {
		t.Fatal(err)
	}
	r.GC(1, 5)
	up.mu.Lock()
	defer up.mu.Unlock()
	if len(up.gcs) != 1 || up.gcs[0].node != 1 || up.gcs[0].below != 5 {
		t.Fatalf("uplink GC calls = %+v", up.gcs)
	}
}

func TestSetEpochDeliversRollOnce(t *testing.T) {
	r := NewRouter()
	r.SetLocal(1)
	r.SetEpoch(3)
	if _, st := r.Recv(1, 2, 1); st != StatusRoll {
		t.Fatalf("first recv status = %d, want MSG_ROLL", st)
	}
	// The epoch was observed; a matching message is now deliverable.
	if err := r.Send(2, 1, 1, iv(9)); err != nil {
		t.Fatal(err)
	}
	if got, st := r.Recv(1, 2, 1); st != StatusOK || got[0].I != 9 {
		t.Fatalf("second recv: status %d, payload %v", st, got)
	}
	// SetEpoch is monotonic: re-announcing an old epoch is a no-op.
	r.SetEpoch(2)
	if _, st, ok := r.TryRecv(1, 2, 99); ok {
		t.Fatalf("stale epoch produced status %d", st)
	}
}

func TestSetEpochWakesParkedReceiver(t *testing.T) {
	r := NewRouter()
	r.SetLocal(1)
	done := make(chan int64, 1)
	go func() {
		_, st := r.Recv(1, 2, 1)
		done <- st
	}()
	time.Sleep(10 * time.Millisecond)
	r.SetEpoch(1)
	select {
	case st := <-done:
		if st != StatusRoll {
			t.Fatalf("status = %d, want MSG_ROLL", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver never woke on remote epoch advance")
	}
}

func TestSeenCursorAcrossRouters(t *testing.T) {
	r := NewRouter()
	r.SetLocal(4)
	r.SetEpoch(7)
	// A process migrated in from elsewhere carries its source's cursor:
	// with seen == epoch it must NOT observe a rollback it already joined.
	r.SetSeen(4, 7)
	if r.Seen(4) != 7 {
		t.Fatalf("Seen = %d, want 7", r.Seen(4))
	}
	if _, st, ok := r.TryRecv(4, 1, 1); ok {
		t.Fatalf("already-observed epoch redelivered with status %d", st)
	}
}
