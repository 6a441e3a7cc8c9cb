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
// A border message is decoded once, by its receiver. The hub validates
// each message frame without decoding it, buffers the frame's encoded
// parts (tag, word count, words) and forwards the frame as it arrived;
// a sender's replay buffer likewise holds the parts of the frames it
// sent. A receiver's GC reaches the hub, which prunes its buffer and
// passes the GC on to the senders, whose replay buffers shrink too.
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
	"math"

	"repro/internal/heap"
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

// val encodes a scalar heap word. Only ints and floats cross the
// interconnect (pointers are process-local); msg_send enforces this, and
// the encoder double-checks.
func (e *enc) val(v heap.Value) error {
	switch v.Kind {
	case heap.KInt:
		e.u8(byte(heap.KInt))
		e.i64(v.I)
	case heap.KFloat:
		e.u8(byte(heap.KFloat))
		e.i64(int64(math.Float64bits(v.F)))
	default:
		return fmt.Errorf("transport: %s word cannot cross the interconnect", v.Kind)
	}
	return nil
}

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
// each part's head (tag, word count) and each word (kind, 8 value bytes).
// A part — tag, count and words — is the unit the replay buffers keep.
const (
	msgHead  = 1 + 8 + 8 + 4
	partHead = 8 + 4
	wordLen  = 1 + 8
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

// encodeMsg builds an fMsg frame: src, dst, then the tagged payloads. The
// frame is sized exactly before a byte is written.
func encodeMsg(src, dst int64, batch []msg.Batched) ([]byte, error) {
	size := msgHead
	for _, b := range batch {
		size += partHead + wordLen*len(b.Words)
	}
	e := enc{b: appendMsgHead(make([]byte, 0, size), src, dst, len(batch))}
	for _, b := range batch {
		e.i64(b.Tag)
		e.u32(uint32(len(b.Words)))
		for _, w := range b.Words {
			if err := e.val(w); err != nil {
				return nil, err
			}
		}
	}
	return e.b, nil
}

// scanMsg validates a whole fMsg frame without decoding or allocating
// (the full frame, type byte included): every part count is bounded by
// the frame, nothing is truncated and every word is an int or a float.
// It returns the head; the n parts follow at msgHead, walked by msgPart.
func scanMsg(b []byte) (src, dst int64, n int, err error) {
	if len(b) < msgHead {
		return 0, 0, 0, fmt.Errorf("transport: truncated message head (%d bytes)", len(b))
	}
	src = int64(binary.BigEndian.Uint64(b[1:]))
	dst = int64(binary.BigEndian.Uint64(b[9:]))
	count := binary.BigEndian.Uint32(b[17:])
	if uint64(count) > uint64(len(b)) {
		return 0, 0, 0, fmt.Errorf("transport: message count %d exceeds frame", count)
	}
	off := msgHead
	for i := uint32(0); i < count; i++ {
		if len(b)-off < partHead {
			return 0, 0, 0, fmt.Errorf("transport: truncated frame at offset %d", off)
		}
		nw := uint64(binary.BigEndian.Uint32(b[off+8:]))
		off += partHead
		if nw*wordLen > uint64(len(b)-off) {
			return 0, 0, 0, fmt.Errorf("transport: %d words truncated at offset %d", nw, off)
		}
		for end := off + int(nw)*wordLen; off < end; off += wordLen {
			if k := heap.Kind(b[off]); k != heap.KInt && k != heap.KFloat {
				return 0, 0, 0, fmt.Errorf("transport: bad wire value kind %d", k)
			}
		}
	}
	return src, dst, int(count), nil
}

// msgPart returns the part at off of a frame scanMsg accepted — its tag
// and its encoded bytes, capped so an append cannot reach past them — and
// the offset of the next part.
func msgPart(b []byte, off int) (tag int64, part []byte, next int) {
	next = off + partHead + int(binary.BigEndian.Uint32(b[off+8:]))*wordLen
	return int64(binary.BigEndian.Uint64(b[off:])), b[off:next:next], next
}

// msgDecoder decodes fMsg frames into a batch and a word buffer that it
// reuses from frame to frame, so after the first frame of a shape a
// decode allocates nothing. A decoded batch is valid until the next
// decode: its consumer copies what it keeps (Router.SendBatch does).
type msgDecoder struct {
	batch []msg.Batched
	words []heap.Value
}

func (m *msgDecoder) decode(b []byte) (src, dst int64, batch []msg.Batched, err error) {
	src, dst, n, err := scanMsg(b)
	if err != nil {
		return 0, 0, nil, err
	}
	batch, words := m.batch[:0], m.words[:0]
	for i, off := 0, msgHead; i < n; i++ {
		tag, part, next := msgPart(b, off)
		start := len(words)
		for w := partHead; w < len(part); w += wordLen {
			bits := binary.BigEndian.Uint64(part[w+1:])
			if heap.Kind(part[w]) == heap.KInt {
				words = append(words, heap.IntVal(int64(bits)))
			} else {
				words = append(words, heap.FloatVal(math.Float64frombits(bits)))
			}
		}
		batch = append(batch, msg.Batched{Tag: tag, Words: words[start:len(words):len(words)]})
		off = next
	}
	m.batch, m.words = batch, words
	return src, dst, batch, nil
}

// msgBuf is a keyed store-and-forward buffer of encoded message parts,
// dst → src → tag → part, in which the latest part per key wins. The hub
// keeps the parts of the frames it relays and each client those of the
// frames it sends. A part is a sub-slice of its frame, so buffering
// copies nothing, and a replayed part is byte for byte the one that was
// sent.
type msgBuf map[int64]map[int64]map[int64][]byte

// putFrame buffers the n parts of a frame scanMsg accepted.
func (m msgBuf) putFrame(b []byte, src, dst int64, n int) {
	for i, off := 0, msgHead; i < n; i++ {
		tag, part, next := msgPart(b, off)
		bySrc := m[dst]
		if bySrc == nil {
			bySrc = make(map[int64]map[int64][]byte)
			m[dst] = bySrc
		}
		tags := bySrc[src]
		if tags == nil {
			tags = make(map[int64][]byte)
			bySrc[src] = tags
		}
		tags[tag] = part
		off = next
	}
}

// prune drops dst's parts with tag < below.
func (m msgBuf) prune(dst, below int64) {
	for _, tags := range m[dst] {
		for tag := range tags {
			if tag < below {
				delete(tags, tag)
			}
		}
	}
}

// frames rebuilds dst's buffered parts as fMsg frames, one per source.
func (m msgBuf) frames(dst int64) [][]byte {
	var out [][]byte
	for src, tags := range m[dst] {
		if len(tags) == 0 {
			continue
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
	}
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

func encodeNode(typ byte, node int64) []byte {
	e := &enc{b: make([]byte, 0, 9)}
	e.u8(typ)
	e.i64(node)
	return e.b
}

func decodeNode(b []byte) (int64, error) {
	d := &dec{b: b, off: 1}
	n := d.i64()
	return n, d.err
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

func encodeEpoch(typ byte, epoch int64) []byte {
	e := &enc{}
	e.u8(typ)
	e.i64(epoch)
	return e.b
}

func decodeEpoch(b []byte) (int64, error) {
	d := &dec{b: b, off: 1}
	v := d.i64()
	return v, d.err
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
