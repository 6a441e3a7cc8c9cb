// Package transport is the distributed cluster link layer: it lets the
// grid application, the speculation/MSG_ROLL semantics and checkpoint
// recovery of the single-process simulation run unchanged across OS
// processes connected by TCP.
//
// Topology: a star. Every worker process holds one connection to the
// coordinator Hub; the Hub maps node IDs to connections, relays border
// messages between workers, buffers them keyed by (dst, src, tag) so a
// worker that (re)connects — including a resurrected incarnation of a
// failed node — replays exactly the messages an in-process mailbox would
// still hold, broadcasts rollback epochs (the paper's MSG_ROLL) when a
// node fails, and routes cross-process migrate("node://K") handoffs.
//
// The shared checkpoint store (the paper's NFS mount) is a second
// service, not a frame type: Listen starts a store.Server beside the hub,
// WELCOME carries its port, and a worker checkpoints through
// store.DialRemote(client.StoreAddr()) on a connection of its own.
//
// A border message is encoded once, by msg_send, and decoded once, by
// msg_recv: frames carry the sender's parts (see msg.AppendPart) as they
// are. The hub validates a message frame without decoding it, copies its
// parts into its relay buffer and forwards the frame; a sender's replay
// buffer holds the parts it sent, and a receiver's mailbox those it got.
// All three are msg.Parts. A receiver's GC reaches the hub, which prunes
// its buffer and passes the GC on to the senders, whose replay buffers
// shrink too; a pruned part's buffer is reused for a later one.
//
// Delivery is keyed and idempotent end to end: re-sending a (src, dst,
// tag) key overwrites with identical content (the computation is
// deterministic), so replays after reconnects, duplicated frames and
// rollback-driven retries all converge to the same grid result as the
// in-process engine — bit-identical to the sequential reference.
//
// Frames use the shared internal/frame codec (also spoken by the
// migration server): a 4-byte length prefix, then a 1-byte frame type and
// a big-endian payload. The hub and its store server run on
// frame.Server, the accept loop of every TCP service here.
package transport

import (
	"encoding/binary"
	"fmt"

	"repro/internal/msg"
	"repro/internal/rt"
)

// Frame types. Direction is noted as worker→hub (W→H) or hub→worker.
const (
	fHello   = 'H' // W→H: node, resurrect — join (or rejoin) as this node
	fWelcome = 'W' // H→W: epoch, store port — hello ack; buffered messages follow
	fMsg     = 'M' // both: src, dst, batch — border-message delivery
	fRoll    = 'R' // H→W: epoch — a node failed; observe MSG_ROLL once
	fFail    = 'F' // H→W: node — you are the failed node; die now
	fGC      = 'G' // both: node, below — prune buffered messages for node
	fOwn     = 'O' // W→H: node — this connection now hosts node too
	fAck     = 'A' // both: id, err — adoption acknowledgement
	fExit    = 'X' // W→H: node's final state — the run result
	fMigrate = 'V' // both: id, src, dst, seen, image — node://K handoff
)

// enc is a tiny append-only big-endian encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (e *enc) i64(v int64) {
	u := uint64(v)
	e.b = append(e.b, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
func (e *enc) blob(b []byte) { e.u32(uint32(len(b))); e.b = append(e.b, b...) }
func (e *enc) str(s string)  { e.blob([]byte(s)) }

// dec is the matching cursor-and-sticky-error decoder.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated frame at offset %d", d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := uint32(d.b[d.off])<<24 | uint32(d.b[d.off+1])<<16 | uint32(d.b[d.off+2])<<8 | uint32(d.b[d.off+3])
	d.off += 4
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(d.b[d.off+i])
	}
	d.off += 8
	return int64(u)
}

func (d *dec) blob() []byte {
	n := d.u32()
	if d.err != nil || d.off+int(n) > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

func (d *dec) str() string { return string(d.blob()) }

// Sizes of an fMsg frame's pieces: the head (type, src, dst, part count),
// then the parts, each a head (tag, word count) and its words (kind, 8
// value bytes) in msg's part layout.
const (
	msgHead  = 1 + 8 + 8 + 4
	partHead = msg.PartHead
	wordLen  = msg.WordLen
)

// appendMsgHead starts an fMsg frame of n parts.
func appendMsgHead(b []byte, src, dst int64, n int) []byte {
	e := enc{b: b}
	e.u8(fMsg)
	e.i64(src)
	e.i64(dst)
	e.u32(uint32(n))
	return e.b
}

// scanMsg validates a whole fMsg frame without decoding or allocating
// (the full frame, type byte included): every part count is bounded by
// the frame, nothing is truncated and every word is an int or a float
// (msg.SplitPart). It returns the head and the bytes of the n parts.
func scanMsg(b []byte) (src, dst int64, parts []byte, n int, err error) {
	if len(b) < msgHead {
		return 0, 0, nil, 0, fmt.Errorf("transport: truncated message head (%d bytes)", len(b))
	}
	count := binary.BigEndian.Uint32(b[17:]) // a bogus one fails within len(b)/partHead parts
	rest := b[msgHead:]
	for i := uint32(0); i < count; i++ {
		if _, _, rest, err = msg.SplitPart(rest); err != nil {
			return 0, 0, nil, 0, fmt.Errorf("transport: part %d: %w", i, err)
		}
	}
	src = int64(binary.BigEndian.Uint64(b[1:]))
	dst = int64(binary.BigEndian.Uint64(b[9:]))
	return src, dst, b[msgHead : len(b)-len(rest)], int(count), nil
}

// msgBuf is a keyed store-and-forward buffer of encoded message parts,
// dst → src → tag → part, in which the latest part per key wins. The hub
// keeps the parts of the frames it relays and each client those of the
// frames it sends. Parts are copied in, into buffers that pruning
// recycles (msg.Parts), so the frame they came in may be reused at once;
// a replayed part is byte for byte the one that was sent.
type msgBuf map[int64]*msg.Parts

// put buffers the parts of a frame scanMsg accepted.
func (m msgBuf) put(src, dst int64, parts []byte) {
	p := m[dst]
	if p == nil {
		p = new(msg.Parts)
		m[dst] = p
	}
	p.Put(src, parts)
}

// frames rebuilds dst's buffered parts as fMsg frames, one per source.
func (m msgBuf) frames(dst int64) [][]byte {
	var out [][]byte
	m[dst].Each(func(src int64, tags map[int64][]byte) {
		if len(tags) == 0 {
			return
		}
		size := msgHead
		for _, p := range tags {
			size += len(p)
		}
		f := appendMsgHead(make([]byte, 0, size), src, dst, len(tags))
		for _, p := range tags {
			f = append(f, p...)
		}
		out = append(out, f)
	})
	return out
}

// encodeHello carries the joining node plus whether this incarnation is a
// resurrection from checkpoint. Only a resurrection may clear the hub's
// failed mark: a zombie of the old incarnation rejoining after a network
// blip must be re-killed, not re-admitted, or the node would briefly have
// two live processes.
func encodeHello(node int64, resurrect bool) []byte {
	e := &enc{b: make([]byte, 0, 10)}
	e.u8(fHello)
	e.i64(node)
	if resurrect {
		e.u8(1)
	} else {
		e.u8(0)
	}
	return e.b
}

func decodeHello(b []byte) (node int64, resurrect bool, err error) {
	d := &dec{b: b, off: 1}
	node = d.i64()
	resurrect = d.u8() != 0
	return node, resurrect, d.err
}

// encodeInt builds the frames that carry one integer: a node (fOwn,
// fFail) or an epoch (fRoll).
func encodeInt(typ byte, v int64) []byte {
	e := &enc{b: make([]byte, 0, 9)}
	e.u8(typ)
	e.i64(v)
	return e.b
}

func decodeInt(b []byte) (int64, error) {
	d := &dec{b: b, off: 1}
	v := d.i64()
	return v, d.err
}

func encodeGC(node, below int64) []byte {
	e := &enc{b: make([]byte, 0, 17)}
	e.u8(fGC)
	e.i64(node)
	e.i64(below)
	return e.b
}

func decodeGC(b []byte) (node, below int64, err error) {
	d := &dec{b: b, off: 1}
	node = d.i64()
	below = d.i64()
	return node, below, d.err
}

func encodeAck(id uint32, errStr string) []byte {
	e := &enc{}
	e.u8(fAck)
	e.u32(id)
	e.str(errStr)
	return e.b
}

func decodeAck(b []byte) (id uint32, errStr string, err error) {
	d := &dec{b: b, off: 1}
	id = d.u32()
	errStr = d.str()
	return id, errStr, d.err
}

// encodeWelcome answers a HELLO with the current epoch and the port of
// the store server beside the hub.
func encodeWelcome(epoch int64, storePort uint32) []byte {
	e := &enc{b: make([]byte, 0, 13)}
	e.u8(fWelcome)
	e.i64(epoch)
	e.u32(storePort)
	return e.b
}

func decodeWelcome(b []byte) (epoch int64, storePort uint32, err error) {
	d := &dec{b: b, off: 1}
	epoch = d.i64()
	storePort = d.u32()
	if d.err == nil && storePort > 0xffff {
		d.err = fmt.Errorf("transport: store port %d out of range", storePort)
	}
	return epoch, storePort, d.err
}

func encodeExit(r Result) []byte {
	e := &enc{b: make([]byte, 0, 64+len(r.Err))}
	e.u8(fExit)
	e.i64(r.Node)
	e.i64(int64(r.Status))
	e.i64(r.Halt)
	e.i64(int64(r.Steps))
	e.i64(int64(r.Rolls))
	e.str(r.Err)
	return e.b
}

func decodeExit(b []byte) (Result, error) {
	d := &dec{b: b, off: 1}
	r := Result{
		Node:   d.i64(),
		Status: rt.Status(d.i64()),
		Halt:   d.i64(),
		Steps:  uint64(d.i64()),
		Rolls:  uint64(d.i64()),
		Err:    d.str(),
	}
	return r, d.err
}

func encodeMigrate(id uint32, src, dst, seen int64, image []byte) []byte {
	e := &enc{b: make([]byte, 0, 40+len(image))}
	e.u8(fMigrate)
	e.u32(id)
	e.i64(src)
	e.i64(dst)
	e.i64(seen)
	e.blob(image)
	return e.b
}

func decodeMigrate(b []byte) (id uint32, src, dst, seen int64, image []byte, err error) {
	d := &dec{b: b, off: 1}
	id = d.u32()
	src = d.i64()
	dst = d.i64()
	seen = d.i64()
	image = d.blob()
	return id, src, dst, seen, image, d.err
}
