package transport

import (
	"encoding/binary"
	"io"
	"slices"
	"sync"
	"time"
)

// FaultSpec injects frame-level faults into a client's link for tests:
// border-message (fMsg) frames can be dropped, duplicated, reordered and
// held back (latency skew). Control frames (hello, GC, exit, …) always
// pass — the faults model a lossy message path, not a broken protocol.
//
// Predicates receive the message key and a 1-based occurrence count per
// (src, dst, tag), so a test can say "drop the first transmission of this
// border and nothing else" and stay fully deterministic. Counters live in
// the spec, not the connection: they keep counting across reconnects.
//
// ReorderWindow, when ≥ 2, holds back up to that many message frames and
// flushes them in reverse order. The window is flushed by any non-message
// frame (GC, which a node that calls msg_gc sends after each durable
// checkpoint, and Exit) and by MaxHold, which bounds how long a frame can
// be withheld and keeps the lockstep border exchange deadlock-free for
// windows up to the per-step send burst (2). A checkpoint Put goes to the
// store server, not over this link, and flushes nothing.
//
// Hold, when set, returns how many subsequent message writes on the same
// connection a frame is withheld for — the straggler/asymmetric-delay
// model: the frame still arrives, just later than everything the sender
// emitted after it. Held frames are released when their write budget is
// spent, by any non-message frame, and on connection close (a link that
// drops mid-hold must not silently lose them; see faultConn.Close).
//
// MaxHold bounds how long any frame stays withheld in wall-clock time: a
// safety flush releases everything MaxHold after the first withheld
// frame of a burst (default 100ms). This is the liveness guarantee that
// lets randomized chaos runs compose Hold/ReorderWindow with arbitrary
// communication patterns: a node whose trailing send of a round is
// withheld may park with no further writes to age it out, and only the
// clock can release the frame. Keyed idempotent delivery makes the late
// arrival harmless, so the flush never changes a run's result — only
// when frames land.
type FaultSpec struct {
	Drop          func(src, dst, tag int64, occurrence int) bool
	Dup           func(src, dst, tag int64, occurrence int) bool
	Hold          func(src, dst, tag int64, occurrence int) int
	ReorderWindow int
	MaxHold       time.Duration

	mu        sync.Mutex
	counts    map[faultKey]int
	dropped   int
	duped     int
	helds     int
	reordered int
}

type faultKey struct{ src, dst, tag int64 }

// Wrap installs the fault injector on a connection; pass it as
// ClientConfig.Wrap.
func (f *FaultSpec) Wrap(inner FrameConn) FrameConn {
	return &faultConn{inner: inner, spec: f}
}

// Dropped reports how many message frames were dropped so far.
func (f *FaultSpec) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Duplicated reports how many message frames were duplicated so far.
func (f *FaultSpec) Duplicated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.duped
}

// Held reports how many message frames were held back (latency skew).
func (f *FaultSpec) Held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.helds
}

// Reordered reports how many message frames were emitted out of their
// write order by the reorder window.
func (f *FaultSpec) Reordered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reordered
}

// delayedFrame is a message frame withheld by Hold: it is released once
// `left` further message writes have passed it.
type delayedFrame struct {
	b    []byte
	left int
}

type faultConn struct {
	inner FrameConn
	spec  *FaultSpec

	// wmu serializes writes into the inner connection: the safety-flush
	// timer fires on its own goroutine and must not interleave with an
	// in-progress WriteFrame.
	wmu sync.Mutex

	mu      sync.Mutex
	held    [][]byte       // reorder window, oldest first
	delayed []delayedFrame // latency-skewed frames awaiting release
	timer   *time.Timer    // safety flush, armed while frames are withheld
}

func (c *faultConn) writeInner(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.inner.WriteFrame(b)
}

// armSafetyFlushLocked schedules the wall-clock flush if frames are
// withheld and no flush is pending. Called with c.mu held.
func (c *faultConn) armSafetyFlushLocked() {
	if c.timer != nil || (len(c.held) == 0 && len(c.delayed) == 0) {
		return
	}
	d := c.spec.MaxHold
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	c.timer = time.AfterFunc(d, func() {
		c.mu.Lock()
		c.timer = nil
		c.mu.Unlock()
		_ = c.flushAll()
	})
}

func (c *faultConn) ReadFrameInto(buf []byte) ([]byte, error) { return c.inner.ReadFrameInto(buf) }

func (c *faultConn) WriteFrame(b []byte) error {
	if len(b) == 0 || b[0] != fMsg {
		if err := c.flushAll(); err != nil {
			return err
		}
		return c.writeInner(b)
	}
	src, dst, parts, n, err := scanMsg(b)
	if err != nil || n == 0 {
		return c.writeInner(b)
	}
	// Frames carry one tag each on the send path; batch replays use the
	// first tag as the frame's identity.
	tag := int64(binary.BigEndian.Uint64(parts))
	s := c.spec
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[faultKey]int)
	}
	k := faultKey{src, dst, tag}
	s.counts[k]++
	occ := s.counts[k]
	drop := s.Drop != nil && s.Drop(src, dst, tag, occ)
	dup := !drop && s.Dup != nil && s.Dup(src, dst, tag, occ)
	hold := 0
	if !drop && s.Hold != nil {
		hold = s.Hold(src, dst, tag, occ)
	}
	if drop {
		s.dropped++
	}
	if dup {
		s.duped++
	}
	if hold > 0 {
		s.helds++
	}
	window := s.ReorderWindow
	s.mu.Unlock()

	// A message write ages every held-back frame; release the ones whose
	// budget is spent before this frame goes out (they were sent first).
	if ripe := c.ageDelayed(); len(ripe) > 0 {
		for _, f := range ripe {
			if err := c.writeInner(f); err != nil {
				return err
			}
		}
	}

	if drop {
		return nil
	}
	// A withheld frame is copied: the caller reuses b (see FrameConn).
	if hold > 0 {
		c.mu.Lock()
		c.delayed = append(c.delayed, delayedFrame{b: slices.Clone(b), left: hold})
		c.armSafetyFlushLocked()
		c.mu.Unlock()
		return nil
	}
	writes := 1
	if dup {
		writes = 2
	}
	for i := 0; i < writes; i++ {
		if window < 2 {
			if err := c.writeInner(b); err != nil {
				return err
			}
			continue
		}
		c.mu.Lock()
		c.held = append(c.held, slices.Clone(b))
		full := len(c.held) >= window
		if !full {
			c.armSafetyFlushLocked()
		}
		c.mu.Unlock()
		if full {
			if err := c.flushWindow(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ageDelayed decrements every held frame's remaining write budget and
// removes the ripe ones, returning them in original send order.
func (c *faultConn) ageDelayed() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ripe [][]byte
	kept := c.delayed[:0]
	for i := range c.delayed {
		c.delayed[i].left--
		if c.delayed[i].left <= 0 {
			ripe = append(ripe, c.delayed[i].b)
		} else {
			kept = append(kept, c.delayed[i])
		}
	}
	c.delayed = kept
	return ripe
}

// flushWindow emits the reorder window in reverse order.
func (c *faultConn) flushWindow() error {
	c.mu.Lock()
	held := c.held
	c.held = nil
	c.mu.Unlock()
	if len(held) > 1 {
		c.spec.mu.Lock()
		c.spec.reordered += len(held)
		c.spec.mu.Unlock()
	}
	for i := len(held) - 1; i >= 0; i-- {
		if err := c.writeInner(held[i]); err != nil {
			return err
		}
	}
	return nil
}

// flushAll releases every withheld frame: latency-skewed frames first (in
// send order), then the reorder window.
func (c *faultConn) flushAll() error {
	c.mu.Lock()
	delayed := c.delayed
	c.delayed = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.mu.Unlock()
	for _, f := range delayed {
		if err := c.writeInner(f.b); err != nil {
			return err
		}
	}
	return c.flushWindow()
}

// Close flushes every frame still withheld by the reorder window or a
// hold, then closes the inner connection if it supports closing. Without
// the flush, a link dropped mid-window would silently lose frames the
// sender believes it delivered — the replay buffer would never re-send
// them on a connection that is merely being torn down locally.
func (c *faultConn) Close() error {
	err := c.flushAll()
	if cl, ok := c.inner.(io.Closer); ok {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
