package transport

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/msg"
)

// tagged is one decoded part of a message frame.
type tagged struct {
	Tag   int64
	Words []heap.Value
}

// encodeMsg builds an fMsg frame of batch's parts in an exactly sized
// buffer.
func encodeMsg(src, dst int64, batch []tagged) ([]byte, error) {
	size := msgHead
	for _, b := range batch {
		size += partHead + wordLen*len(b.Words)
	}
	f := appendMsgHead(make([]byte, 0, size), src, dst, len(batch))
	for _, b := range batch {
		var err error
		if f, err = msg.AppendPart(f, b.Tag, b.Words); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// decodeMsg is the reference decoder of an fMsg frame (pass the full
// frame, type byte included), written on the dec cursor independently of
// scanMsg and msg's part codec: the fuzz target holds both to it.
func decodeMsg(b []byte) (src, dst int64, batch []tagged, err error) {
	d := &dec{b: b, off: 1}
	src = d.i64()
	dst = d.i64()
	n := d.u32()
	if d.err == nil && int(n) > len(b) { // cheap sanity bound before allocating
		d.err = fmt.Errorf("transport: message count %d exceeds frame", n)
	}
	if d.err == nil {
		batch = make([]tagged, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			tag := d.i64()
			nw := d.u32()
			if d.err == nil && int(nw) > len(b) {
				d.err = fmt.Errorf("transport: word count %d exceeds frame", nw)
				break
			}
			words := make([]heap.Value, 0, nw)
			for j := uint32(0); j < nw; j++ {
				words = append(words, d.val())
			}
			batch = append(batch, tagged{Tag: tag, Words: words})
		}
	}
	return src, dst, batch, d.err
}

func (d *dec) val() heap.Value {
	kind := heap.Kind(d.u8())
	bits := d.i64()
	switch kind {
	case heap.KInt:
		return heap.IntVal(bits)
	case heap.KFloat:
		return heap.Value{Kind: heap.KFloat, F: math.Float64frombits(uint64(bits))}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("transport: bad wire value kind %d", kind)
		}
		return heap.Value{}
	}
}

// latestWins folds a batch the way a mailbox stores it: per tag, the
// last payload.
func latestWins(batch []tagged) map[int64][]heap.Value {
	out := make(map[int64][]heap.Value, len(batch))
	for _, b := range batch {
		out[b.Tag] = b.Words
	}
	return out
}

// sameWords compares payloads bit for bit (NaN included).
func sameWords(a, b []heap.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].Off != b[i].Off ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// partOf returns the last part under tag in a frame scanMsg accepted.
func partOf(b []byte, tag int64) (last []byte) {
	_, _, rest, _, _ := scanMsg(b)
	for len(rest) > 0 {
		t, part, next, _ := msg.SplitPart(rest)
		if t == tag {
			last = part
		}
		rest = next
	}
	return last
}

// FuzzMsgFrame: scanMsg accepts exactly the frames the reference decoder
// accepts; every scanned part is what msg's encoder makes of the
// reference's decode; the parts delivered into a mailbox are received as
// the reference decodes them, latest per tag; and a frame rebuilt from
// the scanned parts — what the hub and a client replay — decodes to the
// same (src, dst) and the same latest payload per tag, each part byte for
// byte as it arrived.
func FuzzMsgFrame(f *testing.F) {
	seeds := [][]tagged{
		{{Tag: 1, Words: iv(1, -2, 3)}},
		{{Tag: 2, Words: []heap.Value{heap.FloatVal(1.5), heap.FloatVal(math.NaN()), heap.IntVal(math.MinInt64)}}},
		nil,
		{{Tag: 3, Words: iv(1)}, {Tag: 4}, {Tag: 3, Words: iv(2, 3)}},
	}
	for _, batch := range seeds {
		b, err := encodeMsg(7, -9, batch)
		if err != nil {
			f.Fatal(err)
		}
		for cut := 0; cut < len(b); cut += 5 {
			f.Add(b[:cut])
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		src, dst, parts, n, serr := scanMsg(b)
		rsrc, rdst, ref, rerr := decodeMsg(b)
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("scanMsg error %v, reference decoder error %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		if src != rsrc || dst != rdst || n != len(ref) {
			t.Fatalf("scanMsg head (%d, %d, %d parts), reference (%d, %d, %d parts)", src, dst, n, rsrc, rdst, len(ref))
		}
		for i, rest := 0, parts; i < n; i++ {
			tag, part, next, err := msg.SplitPart(rest)
			if want, _ := msg.AppendPart(nil, ref[i].Tag, ref[i].Words); err != nil || tag != ref[i].Tag || !bytes.Equal(part, want) {
				t.Fatalf("part %d split as tag %d % x (%v), reference tag %d re-encodes as % x", i, tag, part, err, ref[i].Tag, want)
			}
			rest = next
		}

		want := latestWins(ref)
		r := msg.NewRouter()
		if err := r.SendBatch(src, dst, parts); err != nil {
			t.Fatalf("a scanned frame's parts were refused by the mailbox: %v", err)
		}
		for tag, w := range want {
			if got, st, ok := r.TryRecv(dst, src, tag); !ok || st != msg.StatusOK || !sameWords(got, w) {
				t.Fatalf("mailbox tag %d received as %v (status %d, %v), want %v", tag, got, st, ok, w)
			}
		}

		buf := make(msgBuf)
		buf.put(src, dst, parts)
		frames := buf.frames(dst)
		if len(want) == 0 {
			if len(frames) != 0 {
				t.Fatalf("an empty batch rebuilt as %d frames", len(frames))
			}
			return
		}
		if len(frames) != 1 {
			t.Fatalf("one source rebuilt as %d frames", len(frames))
		}
		fsrc, fdst, rebuilt, err := decodeMsg(frames[0])
		if err != nil || fsrc != src || fdst != dst {
			t.Fatalf("rebuilt frame: (%d, %d), %v; want (%d, %d)", fsrc, fdst, err, src, dst)
		}
		got := latestWins(rebuilt)
		if len(got) != len(want) {
			t.Fatalf("rebuilt tags %v, want %v", got, want)
		}
		for tag, w := range want {
			if !sameWords(got[tag], w) {
				t.Fatalf("tag %d rebuilt as %v, want %v", tag, got[tag], w)
			}
		}
		_, _, rparts, _, err := scanMsg(frames[0])
		for i := 0; err == nil && i < len(rebuilt); i++ {
			var tag int64
			var part []byte
			tag, part, rparts, err = msg.SplitPart(rparts)
			if sent := partOf(b, tag); !bytes.Equal(part, sent) {
				t.Fatalf("tag %d replayed as % x, sent as % x", tag, part, sent)
			}
		}
		if err != nil {
			t.Fatalf("rebuilt frame: %v", err)
		}
	})
}

// borderFrame is a 64-word border row, the grid's per-step message.
func borderFrame(t *testing.T, src, dst, tag int64) []byte {
	t.Helper()
	words := make([]heap.Value, 64)
	for i := range words {
		words[i] = heap.FloatVal(float64(i) / 3)
	}
	b, err := encodeMsg(src, dst, []tagged{{Tag: tag, Words: words}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRelayDoesNotAllocate: relaying a border frame under a key the hub
// already buffers, with no live target, allocates nothing — no decode,
// no copy of the words.
func TestRelayDoesNotAllocate(t *testing.T) {
	h := newHub(t)
	raw := borderFrame(t, 1, 2, 5)
	if want := msgHead + partHead + 64*wordLen; len(raw) != want || cap(raw) != want {
		t.Fatalf("a 64-word frame is %d bytes in a %d-byte buffer, want %d in an exact one", len(raw), cap(raw), want)
	}
	if err := h.relayMsg(raw); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.relayMsg(raw) }); allocs != 0 {
		t.Fatalf("steady-state relay allocates %.1f objects, want 0", allocs)
	}
	if got := h.BufferedTags(2, 1); !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("buffered tags %v, want [5]", got)
	}
}

// TestReceiverDeliveryReusesParts: after the first frame under a key, a
// worker's delivery of a frame's parts into the mailbox — scan, then
// SendBatch, as readLoop does — allocates nothing.
func TestReceiverDeliveryReusesParts(t *testing.T) {
	r := msg.NewRouter()
	raw := borderFrame(t, 1, 2, 5)
	deliver := func() {
		src, dst, parts, _, err := scanMsg(raw)
		if err == nil {
			err = r.SendBatch(src, dst, parts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	if got, st, ok := r.TryRecv(2, 1, 5); !ok || st != msg.StatusOK || len(got) != 64 || got[3].F != 1 {
		t.Fatalf("delivered = %v, status %d, %v", got, st, ok)
	}
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Fatalf("steady-state delivery allocates %.1f objects, want 0", allocs)
	}
}

// TestRelayKeepsNoPartOfTheFrame: the hub reads every message frame into
// one reused buffer, so what it buffers for replay must be a copy: a part
// replayed after the buffer was overwritten is the part that was sent.
func TestRelayKeepsNoPartOfTheFrame(t *testing.T) {
	h := newHub(t)
	sent := borderFrame(t, 1, 2, 5)
	raw := slices.Clone(sent)
	if err := h.relayMsg(raw); err != nil {
		t.Fatal(err)
	}
	copy(raw, borderFrame(t, 3, 4, 6))
	frames := h.buf.frames(2)
	if len(frames) != 1 || !bytes.Equal(frames[0], sent) {
		t.Fatalf("replayed % x, sent % x", frames, sent)
	}
}

// TestRelayRejectsBadFrameWhole: a frame whose last part is malformed
// buffers none of its parts.
func TestRelayRejectsBadFrameWhole(t *testing.T) {
	h := newHub(t)
	raw, err := encodeMsg(1, 2, []tagged{{Tag: 1, Words: iv(10)}, {Tag: 2, Words: iv(20)}})
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-wordLen] = byte(heap.KPtr)
	if h.relayMsg(raw) == nil {
		t.Fatal("a pointer word was relayed")
	}
	if got := h.BufferedTags(2, 1); len(got) != 0 {
		t.Fatalf("a rejected frame left tags %v buffered", got)
	}
}

// outTags returns the tags a client's replay buffer holds for dst from
// src, sorted.
func outTags(c *Client, dst, src int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out[dst].Tags(src)
}

// TestGCShrinksSenderReplayBuffer: a destination's GC reaches the
// workers that sent it messages, whose replay buffers drop the pruned
// tags; a blip afterwards replays only what is left, and a resurrected
// destination still receives it.
func TestGCShrinksSenderReplayBuffer(t *testing.T) {
	h := newHub(t)
	r1, c1 := joinNode(t, h, 1, ClientConfig{RetryBase: 5 * time.Millisecond})
	r2, _ := joinNode(t, h, 2, ClientConfig{RetryBase: 5 * time.Millisecond})
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

	r2.GC(2, 3)
	waitFor(t, func() bool { return reflect.DeepEqual(outTags(c1, 2, 1), []int64{3, 4}) },
		"node 1's replay buffer for node 2 never dropped the GCed tags")

	// After a blip node 1 replays what it holds; a fresh send behind the
	// replay on the same connection proves the replay has landed.
	h.DropLinks()
	if err := r1.Send(1, 2, 5, iv(105)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, r2, 2, 1, 5, 10*time.Second)
	if got := h.BufferedTags(2, 1); !reflect.DeepEqual(got, []int64{3, 4, 5}) {
		t.Fatalf("hub buffers tags %v for node 2 after the replay, want [3 4 5]", got)
	}

	h.Fail(2)
	r2b, _ := joinNode(t, h, 2, ClientConfig{Resurrect: true})
	r2b.Restore(2)
	for tag := int64(3); tag <= 5; tag++ {
		if got := recvWithin(t, r2b, 2, 1, tag, 5*time.Second); got[0].I != 100+tag {
			t.Fatalf("tag %d = %v, want %d", tag, got, 100+tag)
		}
	}
	if _, _, ok := r2b.TryRecv(2, 1, 2); ok {
		t.Fatal("GCed tag 2 reached the resurrected node")
	}
}

// TestReplayKeepsTheSender: a worker hosting two nodes replays each part
// under the node that sent it. The first transmission from the second
// node is lost; after a blip its replay must reach the destination from
// that node, not from the worker's own.
func TestReplayKeepsTheSender(t *testing.T) {
	h := newHub(t)
	spec := &FaultSpec{Drop: func(src, dst, tag int64, occ int) bool { return src == 3 && occ == 1 }}
	r1, _ := joinNode(t, h, 1, ClientConfig{RetryBase: 5 * time.Millisecond, Wrap: spec.Wrap})
	r1.SetLocal(3)
	if err := r1.Send(3, 2, 7, iv(70)); err != nil {
		t.Fatal(err)
	}
	if spec.Dropped() != 1 {
		t.Fatalf("dropped %d frames, want 1", spec.Dropped())
	}
	h.DropLinks()
	waitFor(t, func() bool { return len(h.BufferedTags(2, 3)) == 1 }, "the lost frame was never replayed under node 3")
	if got := h.BufferedTags(2, 1); len(got) != 0 {
		t.Fatalf("node 3's message was replayed as node 1's (tags %v)", got)
	}
	r2, _ := joinNode(t, h, 2, ClientConfig{})
	if got := recvWithin(t, r2, 2, 3, 7, 5*time.Second); got[0].I != 70 {
		t.Fatalf("tag 7 from node 3 = %v, want 70", got)
	}
}
