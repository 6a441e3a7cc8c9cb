package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/heap"
)

// Sizes of an encoded part: a head (8-byte tag, 4-byte word count), then
// each word as a kind byte and 8 value bytes, all big-endian. The layout
// is the one message frames carry on the wire.
const (
	PartHead = 8 + 4
	WordLen  = 1 + 8
)

// growPart extends b by an n-word part under tag, its head written, and
// returns the extended b and the part's words, to be filled by putWord.
func growPart(b []byte, tag int64, n int) (out, words []byte) {
	out = slices.Grow(b, PartHead+n*WordLen)[:len(b)+PartHead+n*WordLen]
	binary.BigEndian.PutUint64(out[len(b):], uint64(tag))
	binary.BigEndian.PutUint32(out[len(b)+8:], uint32(n))
	return out, out[len(b)+PartHead:]
}

// putWord encodes v at the front of w, reporting false for a word that
// cannot cross the interconnect: only ints and floats do, since pointers
// are process-local.
func putWord(w []byte, v heap.Value) bool {
	bits := uint64(v.I)
	switch v.Kind {
	case heap.KInt:
	case heap.KFloat:
		bits = math.Float64bits(v.F)
	default:
		return false
	}
	w[0] = byte(v.Kind)
	binary.BigEndian.PutUint64(w[1:WordLen], bits)
	return true
}

// AppendPart appends words as one part under tag.
func AppendPart(b []byte, tag int64, words []heap.Value) ([]byte, error) {
	b, w := growPart(b, tag, len(words))
	for i, v := range words {
		if !putWord(w[i*WordLen:], v) {
			return nil, fmt.Errorf("msg: %s word cannot cross the interconnect", v.Kind)
		}
	}
	return b, nil
}

// SplitPart validates the part at the front of b, which may come off the
// wire: its word count is bounded by b and every word is an int or a
// float. It returns the part's tag, the part (capped, so an append cannot
// reach past it) and the bytes after it.
func SplitPart(b []byte) (tag int64, part, rest []byte, err error) {
	if len(b) < PartHead || uint64(binary.BigEndian.Uint32(b[8:]))*WordLen > uint64(len(b)-PartHead) {
		return 0, nil, nil, fmt.Errorf("msg: truncated part (%d bytes)", len(b))
	}
	tag, part, rest = cutPart(b)
	for w := part[PartHead:]; len(w) > 0; w = w[WordLen:] {
		if k := heap.Kind(w[0]); k != heap.KInt && k != heap.KFloat {
			return 0, nil, nil, fmt.Errorf("msg: bad wire value kind %d", k)
		}
	}
	return tag, part, rest, nil
}

// cutPart is SplitPart for bytes that hold a valid part at the front.
func cutPart(b []byte) (tag int64, part, rest []byte) {
	end := PartHead + int(binary.BigEndian.Uint32(b[8:]))*WordLen
	return int64(binary.BigEndian.Uint64(b)), b[:end:end], b[end:]
}

// words returns how many words a part holds.
func words(part []byte) int { return (len(part) - PartHead) / WordLen }

// word decodes the word at the front of w, a valid part's words.
func word(w []byte) heap.Value {
	bits := binary.BigEndian.Uint64(w[1:WordLen])
	if heap.Kind(w[0]) == heap.KInt {
		return heap.IntVal(int64(bits))
	}
	return heap.FloatVal(math.Float64frombits(bits))
}

// decodePart appends the words of a part SplitPart accepted to out.
func decodePart(out []heap.Value, part []byte) []heap.Value {
	out = slices.Grow(out, words(part))
	for w := part[PartHead:]; len(w) > 0; w = w[WordLen:] {
		out = append(out, word(w))
	}
	return out
}

// Parts is a keyed buffer of encoded parts, src → tag → part, latest part
// per key wins: a node's mailbox, a worker's replay buffer and the hub's
// relay buffer. Put copies parts in. A re-send of the same length
// overwrites in place; a new key takes a buffer of its length from the
// free list that Prune refills (one cache per size, as in a slab
// allocator), so a stepwise exchange retiring one window of tags at the
// size it sends the next allocates nothing. The free list never holds
// more bytes than were live at once. Each holder guards its own Parts.
type Parts struct {
	bySrc            map[int64]map[int64][]byte
	free             map[int][][]byte // by part length
	live, peak, idle int              // bytes buffered, their high-water mark, bytes free
}

// Put stores a copy of each part in parts, concatenated parts that
// SplitPart accepted, under src and the part's tag.
func (p *Parts) Put(src int64, parts []byte) {
	for len(parts) > 0 {
		tag, part, rest := cutPart(parts)
		p.put(src, tag, part)
		parts = rest
	}
}

func (p *Parts) put(src, tag int64, part []byte) {
	tags := p.bySrc[src]
	if tags == nil {
		if p.bySrc == nil {
			p.bySrc = make(map[int64]map[int64][]byte)
		}
		tags = make(map[int64][]byte)
		p.bySrc[src] = tags
	}
	buf, ok := tags[tag]
	if !ok || len(buf) != len(part) {
		if ok {
			p.release(buf)
		}
		buf = p.take(len(part))
		tags[tag] = buf
	}
	copy(buf, part)
}

// Prune drops every part with tag < below and reports how many it
// dropped. A nil Parts holds none.
func (p *Parts) Prune(below int64) int {
	if p == nil {
		return 0
	}
	dropped := 0
	for _, tags := range p.bySrc {
		for tag, part := range tags {
			if tag < below {
				delete(tags, tag)
				p.release(part)
				dropped++
			}
		}
	}
	return dropped
}

// Each calls fn with every source's parts, tag → part. fn must not keep
// or modify the map. A nil Parts holds none.
func (p *Parts) Each(fn func(src int64, tags map[int64][]byte)) {
	if p == nil {
		return
	}
	for src, tags := range p.bySrc {
		fn(src, tags)
	}
}

// Tags returns the tags buffered from src, sorted. A nil Parts holds none.
func (p *Parts) Tags(src int64) []int64 {
	var out []int64
	if p != nil {
		for tag := range p.bySrc[src] {
			out = append(out, tag)
		}
	}
	slices.Sort(out)
	return out
}

// take returns an n-byte buffer, from the free list when it has one.
func (p *Parts) take(n int) []byte {
	p.live += n
	p.peak = max(p.peak, p.live)
	if bufs := p.free[n]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		bufs[len(bufs)-1] = nil
		p.free[n] = bufs[:len(bufs)-1]
		p.idle -= n
		return b
	}
	return make([]byte, n)
}

// release returns a dropped part's buffer to the free list while the list
// holds no more than the high-water mark of live bytes.
func (p *Parts) release(b []byte) {
	p.live -= len(b)
	if p.idle+len(b) > p.peak {
		return
	}
	if p.free == nil {
		p.free = make(map[int][][]byte)
	}
	p.free[len(b)] = append(p.free[len(b)], b)
	p.idle += len(b)
}
