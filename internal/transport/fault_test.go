package transport

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
)

// recordConn is a fake FrameConn that records every written frame.
type recordConn struct {
	frames [][]byte
	closed bool
}

func (r *recordConn) ReadFrameInto([]byte) ([]byte, error) { return nil, nil }
func (r *recordConn) WriteFrame(b []byte) error {
	r.frames = append(r.frames, slices.Clone(b)) // WriteFrame must not keep b
	return nil
}
func (r *recordConn) Close() error {
	r.closed = true
	return nil
}

func msgFrame(t *testing.T, src, dst, tag, word int64) []byte {
	t.Helper()
	b, err := encodeMsg(src, dst, []tagged{{Tag: tag, Words: []heap.Value{heap.IntVal(word)}}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func frameTags(t *testing.T, frames [][]byte) []int64 {
	t.Helper()
	var tags []int64
	for _, f := range frames {
		_, _, batch, err := decodeMsg(f)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, batch[0].Tag)
	}
	return tags
}

// TestFaultReorderWindowFlushesOnClose: frames still sitting in the
// reorder window when the connection closes (a scripted worker kill
// tears the link down mid-window) are flushed into the inner connection
// rather than silently lost.
func TestFaultReorderWindowFlushesOnClose(t *testing.T) {
	spec := &FaultSpec{ReorderWindow: 3}
	rec := &recordConn{}
	fc := spec.Wrap(rec)

	// Two message writes: fewer than the window, so nothing reaches the
	// inner connection yet.
	if err := fc.WriteFrame(msgFrame(t, 1, 2, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteFrame(msgFrame(t, 1, 2, 11, 101)); err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) != 0 {
		t.Fatalf("window leaked %d frames before close", len(rec.frames))
	}

	cl, ok := fc.(interface{ Close() error })
	if !ok {
		t.Fatal("wrapped conn does not implement Close")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if !rec.closed {
		t.Fatal("inner connection was not closed")
	}
	got := frameTags(t, rec.frames)
	// flushWindow emits in reverse write order.
	if want := []int64{11, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed tags = %v, want %v", got, want)
	}
	if spec.Reordered() != 2 {
		t.Fatalf("Reordered() = %d, want 2", spec.Reordered())
	}
}

// TestFaultHoldFlushesOnClose: latency-skewed frames awaiting their
// release budget are flushed in send order when the link closes.
func TestFaultHoldFlushesOnClose(t *testing.T) {
	spec := &FaultSpec{
		// Withhold every frame for 10 subsequent writes — far more than
		// the test sends, so only Close can release them.
		Hold: func(src, dst, tag int64, occ int) int { return 10 },
	}
	rec := &recordConn{}
	fc := spec.Wrap(rec)
	for tag := int64(20); tag < 23; tag++ {
		if err := fc.WriteFrame(msgFrame(t, 1, 2, tag, tag*7)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.frames) != 0 {
		t.Fatalf("held frames leaked early: %d", len(rec.frames))
	}
	if err := fc.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	got := frameTags(t, rec.frames)
	if want := []int64{20, 21, 22}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed tags = %v, want %v", got, want)
	}
	if spec.Held() != 3 {
		t.Fatalf("Held() = %d, want 3", spec.Held())
	}
}

// TestFaultHoldReleasesByWriteBudget: a held frame re-enters the stream
// after N subsequent message writes — later than everything the sender
// emitted in between (the asymmetric-latency model).
func TestFaultHoldReleasesByWriteBudget(t *testing.T) {
	spec := &FaultSpec{
		Hold: func(src, dst, tag int64, occ int) int {
			if tag == 30 {
				return 2
			}
			return 0
		},
	}
	rec := &recordConn{}
	fc := spec.Wrap(rec)
	for tag := int64(30); tag < 34; tag++ {
		if err := fc.WriteFrame(msgFrame(t, 1, 2, tag, tag)); err != nil {
			t.Fatal(err)
		}
	}
	got := frameTags(t, rec.frames)
	// 30 is withheld for two writes: 31 passes (budget 2→1), 32 ages it
	// to 0 and it is released BEFORE 32 (it was sent first), then 33.
	if want := []int64{31, 30, 32, 33}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
}

// TestFaultControlFrameFlushesHeld: any non-message frame (checkpoint
// put, GC, exit) flushes both the reorder window and held frames before
// itself, preserving the control frame's ordering guarantees.
func TestFaultControlFrameFlushesHeld(t *testing.T) {
	spec := &FaultSpec{
		ReorderWindow: 4,
		Hold: func(src, dst, tag int64, occ int) int {
			if tag == 40 {
				return 99
			}
			return 0
		},
	}
	rec := &recordConn{}
	fc := spec.Wrap(rec)
	for tag := int64(40); tag < 43; tag++ {
		if err := fc.WriteFrame(msgFrame(t, 1, 2, tag, tag)); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.frames) != 0 {
		t.Fatalf("frames leaked before control frame: %d", len(rec.frames))
	}
	control := []byte{fExit, 0, 0, 0}
	if err := fc.WriteFrame(control); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.frames); n != 4 {
		t.Fatalf("inner saw %d frames, want 3 flushed + control", n)
	}
	got := frameTags(t, rec.frames[:3])
	// Held frame 40 first (send order), then the window reversed.
	if want := []int64{40, 42, 41}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flush order = %v, want %v", got, want)
	}
	if last := rec.frames[3]; last[0] != fExit {
		t.Fatalf("control frame not last (type %c)", last[0])
	}
}

// TestFaultDropAndDupCounters: drop and duplicate predicates see the
// 1-based per-(src,dst,tag) occurrence and the spec counts each action.
func TestFaultDropAndDupCounters(t *testing.T) {
	spec := &FaultSpec{
		Drop: func(src, dst, tag int64, occ int) bool { return occ == 1 && tag == 50 },
		Dup:  func(src, dst, tag int64, occ int) bool { return tag == 51 },
	}
	rec := &recordConn{}
	fc := spec.Wrap(rec)
	for _, tag := range []int64{50, 50, 51} {
		if err := fc.WriteFrame(msgFrame(t, 1, 2, tag, tag)); err != nil {
			t.Fatal(err)
		}
	}
	got := frameTags(t, rec.frames)
	// First 50 dropped, second 50 passes (occ=2), 51 duplicated.
	if want := []int64{50, 51, 51}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered tags = %v, want %v", got, want)
	}
	if spec.Dropped() != 1 || spec.Duplicated() != 1 {
		t.Fatalf("Dropped=%d Duplicated=%d, want 1 and 1", spec.Dropped(), spec.Duplicated())
	}
}

// TestFaultWithheldFramesAreCopied: a held frame and the frames of a
// reorder window arrive intact although the caller overwrites its buffer
// after every WriteFrame, as the client's frame scratch does.
func TestFaultWithheldFramesAreCopied(t *testing.T) {
	spec := &FaultSpec{
		ReorderWindow: 2,
		Hold: func(src, dst, tag int64, occ int) int {
			if tag == 60 {
				return 2
			}
			return 0
		},
	}
	rec := &recordConn{}
	fc := spec.Wrap(rec)
	var buf []byte
	for tag := int64(60); tag < 63; tag++ {
		buf = append(buf[:0], msgFrame(t, 1, 2, tag, tag*10)...)
		if err := fc.WriteFrame(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
	}
	if err := fc.(interface{ Close() error }).Close(); err != nil {
		t.Fatal(err)
	}
	// 60 is held until 62 ages it out; 61 and 62 fill the window, which
	// flushes reversed.
	if got, want := frameTags(t, rec.frames), []int64{60, 62, 61}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered tags = %v, want %v", got, want)
	}
	for _, f := range rec.frames {
		_, _, batch, _ := decodeMsg(f)
		if w := batch[0].Words; len(w) != 1 || w[0] != heap.IntVal(batch[0].Tag*10) {
			t.Fatalf("tag %d arrived as %v, want [%d]", batch[0].Tag, w, batch[0].Tag*10)
		}
	}
	if spec.Held() != 1 || spec.Reordered() != 2 {
		t.Fatalf("Held=%d Reordered=%d, want 1 and 2", spec.Held(), spec.Reordered())
	}
}
