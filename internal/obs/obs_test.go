package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// The disabled path: nil registry, tracer, and instruments must all
	// be usable with zero effect — this is the contract every
	// instrumented call site relies on.
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Record(5)
	r.AddSource("s", func() map[string]uint64 { return nil })
	r.RemoveSource("s")
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot: %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Fatalf("nil registry json: %q", buf.String())
	}

	var tr *Tracer
	s := tr.Stream("node/0")
	if s != nil {
		t.Fatal("nil tracer must yield nil stream")
	}
	s.Emit(EvFail, 0, 1, 2, 3, 4, "x")
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot: %v", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer dropped")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("counter not interned")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	s := h.Summary()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 || s.Mean != 50 {
		t.Fatalf("summary = %+v", s)
	}
	// Power-of-two upper bounds: p50 of 1..100 lands in bucket (32,63],
	// p95 and p99 in (64,127] clamped to the observed max.
	if s.P50 != 63 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if s.P95 != 100 || s.P99 != 100 {
		t.Fatalf("p95 = %d p99 = %d", s.P95, s.P99)
	}
	if (&Histogram{}).Summary() != (LatencySummary{}) {
		t.Fatal("empty histogram summary not zero")
	}

	var neg Histogram
	neg.Record(-5)
	if got := neg.Summary(); got.Min != 0 || got.Max != 0 || got.Count != 1 {
		t.Fatalf("negative clamp: %+v", got)
	}
}

func TestRegistrySnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs").Add(2)
	r.Gauge("active").Set(1)
	r.Histogram("wait_ns").Record(100)
	r.AddSource("msg", func() map[string]uint64 {
		return map[string]uint64{"sends": 9, "rolls": 1}
	})
	snap := r.Snapshot()
	if snap["runs"] != uint64(2) || snap["active"] != int64(1) {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap["msg.sends"] != uint64(9) || snap["msg.rolls"] != uint64(1) {
		t.Fatalf("source keys: %v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output not valid json: %v\n%s", err, buf.String())
	}
	// Deterministic ordering: keys sorted.
	out := buf.String()
	if !(strings.Index(out, `"active"`) < strings.Index(out, `"msg.rolls"`) &&
		strings.Index(out, `"msg.rolls"`) < strings.Index(out, `"runs"`)) {
		t.Fatalf("keys not sorted: %s", out)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	n0 := tr.Stream("node/0")
	ctl := tr.Stream("ctl")
	n0.Emit(EvSpecEnter, 0, 0, 10, 1, 100, "")
	ctl.Emit(EvFail, 2, 0, 0, 0, 0, "")
	n0.Emit(EvSpecRollback, 0, 1, 12, 1, 0, "")
	if tr.Stream("node/0") != n0 {
		t.Fatal("stream not interned")
	}

	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Sorted by stream name, then seq.
	if snap[0].Stream != "ctl" || snap[1].Stream != "node/0" || snap[2].Stream != "node/0" {
		t.Fatalf("order: %+v", snap)
	}
	if snap[1].Seq != 0 || snap[2].Seq != 1 {
		t.Fatalf("seqs: %+v", snap)
	}
	if snap[1].Kind != "spec.enter" || snap[2].Kind != "spec.rollback" {
		t.Fatalf("kinds: %+v", snap)
	}
	if snap[2].Epoch != 1 || snap[2].Step != 12 {
		t.Fatalf("logical time: %+v", snap[2])
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(snap) {
		t.Fatalf("round trip len %d != %d", len(back), len(snap))
	}
	for i := range back {
		if back[i] != snap[i] {
			t.Fatalf("round trip [%d]: %+v != %+v", i, back[i], snap[i])
		}
	}

	// Snapshot does not consume; Drain does.
	if got := tr.Snapshot(); len(got) != 3 {
		t.Fatalf("second snapshot len = %d", len(got))
	}
	if got := tr.Drain(); len(got) != 3 {
		t.Fatalf("drain len = %d", len(got))
	}
	if got := tr.Drain(); len(got) != 0 {
		t.Fatalf("post-drain len = %d", len(got))
	}
}

func TestStreamOverwrite(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Stream("node/0")
	for i := 0; i < 10; i++ {
		s.Emit(EvSpecCommit, 0, 0, uint64(i), int64(i), 0, "")
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events", len(evs))
	}
	// Oldest-first window over the last 4 emits.
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("ev[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	// Drain resets the dropped count with the window.
	tr.Drain()
	if tr.Dropped() != 0 {
		t.Fatalf("dropped after drain = %d", tr.Dropped())
	}
}

// TestStreamGrowsToCap: a ring that starts small grows through several
// doublings to a cap that is not a power of two, loses nothing on the
// way, and from the cap on overwrites oldest-first exactly like a ring
// allocated at full size, across a drain in the middle.
func TestStreamGrowsToCap(t *testing.T) {
	const capN = 100
	tr := NewTracer(capN)
	s := tr.Stream("node/0")
	window := func() []Event {
		t.Helper()
		evs := tr.Snapshot()
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 || evs[i].Step != evs[i].Seq {
				t.Fatalf("window out of order at %d: %+v after %+v", i, evs[i], evs[i-1])
			}
		}
		return evs
	}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			seq := s.next
			s.Emit(EvSpecCommit, 0, 0, seq, int64(seq), 0, "")
		}
	}

	emit(capN - 1) // 16 -> 32 -> 64 -> 100 slots, nothing dropped yet
	if evs := window(); len(evs) != capN-1 || evs[0].Seq != 0 || tr.Dropped() != 0 {
		t.Fatalf("below the cap: %d events from seq %d, %d dropped", len(evs), evs[0].Seq, tr.Dropped())
	}
	if len(s.ring) != capN {
		t.Fatalf("ring has %d slots, want the cap %d", len(s.ring), capN)
	}
	emit(2*capN + 1) // 300 emitted in all: the last 100 survive
	evs := window()
	if len(evs) != capN || evs[0].Seq != 200 || evs[capN-1].Seq != 299 {
		t.Fatalf("past the cap: %d events, seq %d..%d", len(evs), evs[0].Seq, evs[len(evs)-1].Seq)
	}
	if tr.Dropped() != 200 {
		t.Fatalf("dropped = %d, want 200", tr.Dropped())
	}
	if len(s.ring) != capN {
		t.Fatalf("ring grew past its cap to %d slots", len(s.ring))
	}

	if got := tr.Drain(); len(got) != capN || tr.Dropped() != 0 {
		t.Fatalf("drain returned %d events, left %d dropped", len(got), tr.Dropped())
	}
	emit(capN + 5)
	if evs := window(); len(evs) != capN || evs[0].Seq != 305 || tr.Dropped() != 5 {
		t.Fatalf("after drain: %d events from seq %d, %d dropped", len(evs), evs[0].Seq, tr.Dropped())
	}
}

func TestKindNamesStable(t *testing.T) {
	for k := EvNone; k <= EvServeSweep; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if KindFromString(name) != k {
			t.Fatalf("KindFromString(%q) != %v", name, k)
		}
	}
	if KindFromString("bogus") != EvNone {
		t.Fatal("unknown name must map to EvNone")
	}
}

func TestConcurrentScrape(t *testing.T) {
	// Producers hammer instruments and streams while scrapers snapshot;
	// run under -race this is the registry/tracer thread-safety proof.
	r := NewRegistry()
	tr := NewTracer(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			s := tr.Stream("node/" + string(rune('0'+p)))
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Record(int64(i))
				s.Emit(EvSpecCommit, p, 0, uint64(i), 0, 0, "")
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			tr.Snapshot()
			tr.Dropped()
		}
	}()
	// Producers finish on their own; the scraper needs the stop signal
	// once the counter shows all work done.
	for r.Counter("c").Value() < 8000 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
}
