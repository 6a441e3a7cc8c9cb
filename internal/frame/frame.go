// Package frame implements the length-prefixed framing every TCP protocol
// in this repository speaks — the migration sessions of internal/migrate
// (§4.2.2's two-phase transfer), the distributed cluster transport of
// internal/transport, the store protocol and the serving daemon — and
// Server, the one accept loop all of them run on. A frame is a 4-byte
// big-endian length followed by that many payload bytes.
//
// Read never trusts the length prefix: the payload is read through a
// limited, chunk-growing copy, so a bogus or hostile header can at most
// make the reader wait for bytes that never arrive — it cannot make the
// process allocate the advertised size up front.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxPayload is the default frame-size cap (256 MiB), chosen to fit the
// largest realistic process image (a multi-MiB heap snapshot) with a wide
// margin.
const MaxPayload = 256 << 20

// initialChunk bounds the first allocation of a read: the buffer grows
// geometrically from here as payload bytes actually arrive.
const initialChunk = 64 << 10

// combineLimit bounds the write-combining copy: payloads up to this size
// are staged with their header in one pooled buffer and written with a
// single Write call (one syscall on a net.Conn); larger payloads are
// written header-then-payload to avoid copying megabyte images.
const combineLimit = 64 << 10

// writeBufs pools the write-combining scratch. Message frames on the
// transport hot path are small and frequent; without the pool every send
// paid a header write plus a payload write, and callers that built a
// combined buffer themselves allocated per frame.
var writeBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4+combineLimit)
		return &b
	},
}

// Write writes one length-prefixed frame.
func Write(w io.Writer, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("frame: payload of %d bytes exceeds limit", len(payload))
	}
	if len(payload) <= combineLimit {
		bp := writeBufs.Get().(*[]byte)
		buf := (*bp)[:4]
		binary.BigEndian.PutUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
		_, err := w.Write(buf)
		*bp = buf[:0]
		writeBufs.Put(bp)
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Read reads one length-prefixed frame, rejecting payloads larger than
// MaxPayload. Allocation is driven by the bytes that arrive, never by the
// header alone: the result starts at initialChunk and grows geometrically
// only as payload bytes land, reading directly into the result's spare
// capacity (no intermediate buffer, no per-read reader allocations).
func Read(r io.Reader) ([]byte, error) { return ReadInto(r, nil) }

// ReadInto is Read into buf's storage: a frame that fits in cap(buf) is
// read into it and the result aliases buf; a larger one is read as Read
// reads it, into a fresh slice. A reader that hands back the previous
// frame's result, once done with that frame, allocates nothing per frame
// in steady state.
func ReadInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header goes through buf too when it can: read through an
	// interface, a header array of its own would escape to the heap.
	hdr := buf[:0]
	if cap(hdr) < 4 {
		hdr = make([]byte, 0, 4)
	}
	hdr = hdr[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if uint32(n) > MaxPayload {
		return nil, fmt.Errorf("frame: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		if buf == nil {
			return []byte{}, nil
		}
		return buf[:0], nil
	}
	if n <= cap(buf) {
		out := buf[:n]
		if _, err := io.ReadFull(r, out); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return out, nil
	}
	first := n
	if first > initialChunk {
		first = initialChunk
	}
	out := make([]byte, 0, first)
	for len(out) < n {
		if len(out) == cap(out) {
			// Grow geometrically via append, then reclaim the length.
			out = append(out, 0)[:len(out)]
		}
		target := cap(out)
		if target > n {
			target = n
		}
		m, err := io.ReadFull(r, out[len(out):target])
		out = out[:len(out)+m]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return out, nil
}

// Conn frames an underlying byte stream. It performs no locking: callers
// serialize writers themselves (reads and writes may proceed
// concurrently with each other).
type Conn struct{ RW io.ReadWriter }

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{RW: rw} }

// ReadFrameInto reads the next frame into buf's storage (ReadInto); a
// nil buf reads it into a fresh slice.
func (c *Conn) ReadFrameInto(buf []byte) ([]byte, error) { return ReadInto(c.RW, buf) }

// WriteFrame writes one frame.
func (c *Conn) WriteFrame(payload []byte) error { return Write(c.RW, payload) }
