package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies a trace event. The numeric values are stable wire
// constants (they appear in drained JSONL), so append only.
type Kind uint8

const (
	EvNone Kind = iota

	// Cluster engine lifecycle (ctl stream + node streams).
	EvQuiesce
	EvResume
	EvFail
	EvResurrect
	EvHandoff
	EvAdopt
	EvHalt

	// Speculation (node streams).
	EvSpecEnter
	EvSpecCommit
	EvSpecRollback

	// Checkpoint pipeline (node streams for capture, chain streams for
	// the async committer's put/publish).
	EvCkptCapture
	EvCkptPut
	EvCkptPublish

	// Messaging / transport.
	EvMsgRoll
	EvFrameSend
	EvFrameRecv
	EvFrameReplay

	// Serving daemon.
	EvServeAdmit
	EvServeReject
	EvServeStart
	EvServeVerify
	EvServeSweep

	// Checkpoint store tier (store stream): backend puts, replica
	// read-repair, retention GC sweeps, storm-gate admissions.
	EvStorePut
	EvStoreRepair
	EvStoreGC
	EvStoreGate
)

var kindNames = [...]string{
	EvNone:         "none",
	EvQuiesce:      "quiesce",
	EvResume:       "resume",
	EvFail:         "fail",
	EvResurrect:    "resurrect",
	EvHandoff:      "handoff",
	EvAdopt:        "adopt",
	EvHalt:         "halt",
	EvSpecEnter:    "spec.enter",
	EvSpecCommit:   "spec.commit",
	EvSpecRollback: "spec.rollback",
	EvCkptCapture:  "ckpt.capture",
	EvCkptPut:      "ckpt.put",
	EvCkptPublish:  "ckpt.publish",
	EvMsgRoll:      "msg.roll",
	EvFrameSend:    "frame.send",
	EvFrameRecv:    "frame.recv",
	EvFrameReplay:  "frame.replay",
	EvServeAdmit:   "serve.admit",
	EvServeReject:  "serve.reject",
	EvServeStart:   "serve.start",
	EvServeVerify:  "serve.verify",
	EvServeSweep:   "serve.sweep",
	EvStorePut:     "store.put",
	EvStoreRepair:  "store.repair",
	EvStoreGC:      "store.gc",
	EvStoreGate:    "store.gate",
}

// String returns the stable event-kind name used in JSONL.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts String; returns EvNone for unknown names.
func KindFromString(s string) Kind {
	for i, n := range kindNames {
		if n == s {
			return Kind(i)
		}
	}
	return EvNone
}

// Event is one trace record. Logical time is (Node, Epoch, Step): the
// node id, the rollback epoch it was in, and its deterministic step
// count at the instant of the event. Wall is nanoseconds since the Unix
// epoch, recorded for human timelines but excluded from any determinism
// comparison — it is the only nondeterministic field on a failure-free
// run. A and B are event-specific operands (e.g. spec level ordinal and
// id, checkpoint seq and byte size, frame src and payload words); Name
// carries an identifier when one exists (chain member, tenant, app).
type Event struct {
	Stream string `json:"stream"`
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Epoch  uint64 `json:"epoch"`
	Step   uint64 `json:"step"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
	Name   string `json:"name,omitempty"`
	Wall   int64  `json:"wall"`
}

// rawEvent is the in-ring representation (Kind kept numeric, stream
// implied by the ring it sits in).
type rawEvent struct {
	seq   uint64
	kind  Kind
	node  int
	epoch uint64
	step  uint64
	a, b  int64
	name  string
	wall  int64
}

// Stream is one bounded event ring with a single logical producer (a
// node's driver goroutine, the engine's control path, an async
// checkpoint committer). The per-stream mutex is therefore uncontended
// in steady state — it exists so concurrent Snapshot/Drain calls (a
// metrics scrape racing the producer) are race-detector clean. The ring
// starts small and doubles whenever it fills, up to the tracer's
// per-stream cap, so a stream costs memory for the events it actually
// holds; only at the cap does a new event overwrite the oldest. Emit is
// amortised O(1).
type Stream struct {
	mu      sync.Mutex
	name    string
	ring    []rawEvent
	max     int    // the ring never grows past max slots
	next    uint64 // seq of the next event to be written
	dropped uint64 // events overwritten before being drained
	base    uint64 // seq of the oldest event still in the ring
}

// initialRing is a new stream's ring size (or its cap, if smaller).
const initialRing = 16

// Emit appends one event. Nil-safe: a nil stream is a single branch.
func (s *Stream) Emit(kind Kind, node int, epoch, step uint64, a, b int64, name string) {
	if s == nil {
		return
	}
	wall := time.Now().UnixNano()
	s.mu.Lock()
	if s.next-s.base >= uint64(len(s.ring)) {
		if len(s.ring) < s.max {
			s.grow()
		} else {
			s.dropped++
			s.base++
		}
	}
	s.ring[s.next%uint64(len(s.ring))] = rawEvent{
		seq: s.next, kind: kind, node: node, epoch: epoch, step: step,
		a: a, b: b, name: name, wall: wall,
	}
	s.next++
	s.mu.Unlock()
}

// grow doubles the ring (capped at max), re-placing the live window by
// sequence number so every event keeps its slot seq % len(ring).
func (s *Stream) grow() {
	n := min(2*len(s.ring), s.max)
	ring := make([]rawEvent, n)
	for seq := s.base; seq < s.next; seq++ {
		ring[seq%uint64(n)] = s.ring[seq%uint64(len(s.ring))]
	}
	s.ring = ring
}

// events copies the live window oldest-first, optionally consuming it.
func (s *Stream) events(drain bool) (out []Event, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next - s.base
	out = make([]Event, 0, n)
	for seq := s.base; seq < s.next; seq++ {
		e := s.ring[seq%uint64(len(s.ring))]
		out = append(out, Event{
			Stream: s.name, Seq: e.seq, Kind: e.kind.String(),
			Node: e.node, Epoch: e.epoch, Step: e.step,
			A: e.a, B: e.b, Name: e.name, Wall: e.wall,
		})
	}
	dropped = s.dropped
	if drain {
		s.base = s.next
		s.dropped = 0
	}
	return out, dropped
}

// DefaultStreamCap is the per-stream ring cap when the caller does not
// choose one. At ~80 bytes per slot a full stream is ~320 KiB — deep
// enough to hold a full rollback cascade on every node of a large run;
// rings grow to it only as events arrive.
const DefaultStreamCap = 4096

// Tracer owns a set of named streams. A nil *Tracer is the disabled
// tracer: Stream() returns nil, and every Emit on that nil stream is a
// predictable branch — subsystems hold the *Stream, not the *Tracer, so
// the disabled cost is paid once per event site, not per lookup.
type Tracer struct {
	mu      sync.Mutex
	perCap  int
	streams map[string]*Stream
	order   []string // creation order, for stable export
}

// NewTracer creates a tracer whose streams each hold at most
// perStreamCap events (DefaultStreamCap if <= 0). The cap is a bound,
// not an allocation: each ring starts small and grows on demand.
func NewTracer(perStreamCap int) *Tracer {
	if perStreamCap <= 0 {
		perStreamCap = DefaultStreamCap
	}
	return &Tracer{perCap: perStreamCap, streams: make(map[string]*Stream)}
}

// Stream returns (creating on first use) the named stream. Nil-safe:
// a nil tracer yields a nil stream.
func (t *Tracer) Stream(name string) *Stream {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.streams[name]
	if s == nil {
		s = &Stream{name: name, ring: make([]rawEvent, min(initialRing, t.perCap)), max: t.perCap}
		t.streams[name] = s
		t.order = append(t.order, name)
	}
	return s
}

// Dropped sums overwritten-before-drain counts across streams.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	streams := make([]*Stream, 0, len(t.streams))
	for _, s := range t.streams {
		streams = append(streams, s)
	}
	t.mu.Unlock()
	var total uint64
	for _, s := range streams {
		s.mu.Lock()
		total += s.dropped
		s.mu.Unlock()
	}
	return total
}

func (t *Tracer) collect(drain bool) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	names := append([]string(nil), t.order...)
	streams := make([]*Stream, len(names))
	for i, n := range names {
		streams[i] = t.streams[n]
	}
	t.mu.Unlock()
	sort.SliceStable(streams, func(i, j int) bool { return streams[i].name < streams[j].name })
	var out []Event
	for _, s := range streams {
		evs, _ := s.events(drain)
		out = append(out, evs...)
	}
	return out
}

// Snapshot returns all buffered events, sorted by (stream, seq),
// without consuming them.
func (t *Tracer) Snapshot() []Event { return t.collect(false) }

// Drain returns all buffered events, sorted by (stream, seq), and
// empties the rings (mojd's trace-drain RPC semantics: each event is
// delivered to at most one drainer).
func (t *Tracer) Drain() []Event { return t.collect(true) }

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses events written by WriteJSONL (blank lines skipped).
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var out []Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace jsonl line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
