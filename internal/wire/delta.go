// Delta images: the incremental half of the checkpoint pipeline. A delta
// image names its base checkpoint (the previous member of a chain whose
// root is a full Image) and carries only the heap entries dirtied since
// that base, chunked so corruption is detected per chunk. Rebuild applies
// a chain of deltas to its full base and returns an Image bit-identical
// to the full checkpoint that would have been written at the same moment.
// Old full images remain readable unchanged; a head "ref" record is the
// tiny durability watermark the committer publishes last.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/heap"
	"repro/internal/spec"
)

const (
	deltaMagic = "MCCDEL"
	// DeltaHeader prefixes delta checkpoint files the way ExecHeader
	// prefixes full ones.
	DeltaHeader = "#!mcc-dlt\n"
	// RefHeader prefixes a head record: a one-line pointer naming the chain
	// member that is the last durable checkpoint. It is written only after
	// that member's payload is durable, so readers of the head name never
	// observe an in-flight checkpoint.
	RefHeader = "#!mcc-ref\n"

	// chunkEntries bounds how many changed entries share one CRC-protected
	// chunk of a delta image.
	chunkEntries = 256
)

// DeltaImage is an incremental checkpoint: everything needed to advance a
// reconstructed Image from the chain member named Base to this checkpoint.
type DeltaImage struct {
	// Base is the store name of the previous chain member (a full image
	// for the first delta, otherwise the preceding delta).
	Base string
	// Seq is this checkpoint's position in its chain (the full base is 0).
	Seq int
	// Code is the checkpoint's code part. Program and Hash may both be
	// empty when the program is byte-identical to the base's — the common
	// case, since a process cannot change its own code — and are then
	// taken from the chain's full base on rebuild.
	Code CodePart
	// Delta is the heap change set since Base.
	Delta heap.DeltaSnapshot
	// Conts is the complete speculation continuation stack (small; not
	// diffed).
	Conts []spec.Continuation
}

// EncodeRef serializes a head record pointing at a chain member.
func EncodeRef(target string) []byte {
	return []byte(RefHeader + target)
}

// DecodeRef reports whether data is a head record and, if so, the chain
// member it points at.
func DecodeRef(data []byte) (string, bool) {
	if !bytes.HasPrefix(data, []byte(RefHeader)) {
		return "", false
	}
	target := string(data[len(RefHeader):])
	if target == "" || strings.ContainsAny(target, "\n\r") {
		return "", false
	}
	return target, true
}

// IsDeltaImage reports whether data starts like a delta checkpoint file.
func IsDeltaImage(data []byte) bool {
	return bytes.HasPrefix(data, []byte(DeltaHeader))
}

// IsImage reports whether data starts like a full checkpoint file.
func IsImage(data []byte) bool {
	return bytes.HasPrefix(data, []byte(ExecHeader))
}

// IsRefHeader reports whether data claims to be a head record (whether
// or not the record decodes — DecodeRef validates the target).
func IsRefHeader(data []byte) bool {
	return bytes.HasPrefix(data, []byte(RefHeader))
}

// encodeDeltaPart serializes the delta-specific payload (everything but
// the code part).
func encodeDeltaPart(d *DeltaImage) []byte {
	e := &enc{}
	e.b = append(e.b, deltaMagic...)
	e.b = append(e.b, stateVersion)
	e.str(d.Base)
	e.u(uint64(d.Seq))
	e.u(uint64(d.Delta.TableLen))

	// Changed entries travel in CRC-protected chunks so a corrupt or
	// truncated region is pinpointed without trusting the rest.
	nChunks := (len(d.Delta.Changed) + chunkEntries - 1) / chunkEntries
	e.u(uint64(nChunks))
	for c := 0; c < nChunks; c++ {
		lo := c * chunkEntries
		hi := lo + chunkEntries
		if hi > len(d.Delta.Changed) {
			hi = len(d.Delta.Changed)
		}
		ce := &enc{}
		ce.u(uint64(hi - lo))
		for _, en := range d.Delta.Changed[lo:hi] {
			ce.i(en.Idx)
			ce.u(uint64(en.Level))
			ce.values(en.Words)
		}
		ce.check(0) // the chunk's own CRC-32
		e.bytes(ce.b)
	}

	e.u(uint64(len(d.Delta.Freed)))
	for _, idx := range d.Delta.Freed {
		e.i(idx)
	}
	e.u(uint64(len(d.Delta.Levels)))
	for _, lv := range d.Delta.Levels {
		e.u(uint64(len(lv.Shadows)))
		for _, sh := range lv.Shadows {
			e.i(sh.Idx)
			e.u(uint64(sh.OldLevel))
			e.values(sh.Words)
		}
		e.u(uint64(len(lv.Allocs)))
		for _, a := range lv.Allocs {
			e.i(a)
		}
	}
	e.u(uint64(len(d.Conts)))
	for _, c := range d.Conts {
		e.i(c.FnIndex)
		e.values(c.Args)
	}
	e.check(0)
	return e.b
}

// decodeDeltaPart parses the delta-specific payload.
func decodeDeltaPart(data []byte) (*DeltaImage, error) {
	d, err := newDec(data, deltaMagic, stateVersion)
	if err != nil {
		return nil, err
	}
	out := &DeltaImage{}
	out.Base = d.str()
	out.Seq = int(d.u())
	out.Delta.TableLen = int(d.u())

	nChunks := d.count()
	for c := 0; c < nChunks && d.err == nil; c++ {
		chunk := d.blob()
		if d.err != nil {
			break
		}
		if len(chunk) < 4 {
			return nil, fmt.Errorf("wire: delta chunk %d truncated", c)
		}
		body, tail := chunk[:len(chunk)-4], chunk[len(chunk)-4:]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
			return nil, fmt.Errorf("wire: delta chunk %d: %w", c, ErrChecksum)
		}
		cd := &dec{data: body}
		ne := cd.count()
		for i := 0; i < ne && cd.err == nil; i++ {
			en := heap.EntrySnap{Idx: cd.i(), Level: int(cd.u())}
			en.Words = cd.values()
			out.Delta.Changed = append(out.Delta.Changed, en)
		}
		if err := cd.done(); err != nil {
			return nil, fmt.Errorf("wire: delta chunk %d: %w", c, err)
		}
	}

	nf := d.count()
	for i := 0; i < nf && d.err == nil; i++ {
		out.Delta.Freed = append(out.Delta.Freed, d.i())
	}
	nl := d.count()
	for i := 0; i < nl && d.err == nil; i++ {
		lv := heap.LevelSnap{}
		ns := d.count()
		for j := 0; j < ns && d.err == nil; j++ {
			sh := heap.ShadowSnap{Idx: d.i(), OldLevel: int(d.u())}
			sh.Words = d.values()
			lv.Shadows = append(lv.Shadows, sh)
		}
		na := d.count()
		for j := 0; j < na && d.err == nil; j++ {
			lv.Allocs = append(lv.Allocs, d.i())
		}
		out.Delta.Levels = append(out.Delta.Levels, lv)
	}
	nc := d.count()
	for i := 0; i < nc && d.err == nil; i++ {
		c := spec.Continuation{FnIndex: d.i()}
		c.Args = d.values()
		out.Conts = append(out.Conts, c)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeDeltaImage serializes a delta checkpoint file: the delta header
// followed by length-prefixed code and delta parts (mirroring
// EncodeImage's layout).
func EncodeDeltaImage(d *DeltaImage) []byte {
	e := enc{b: []byte(DeltaHeader)}
	at := e.reserve()
	e.codePart(&d.Code)
	e.fill(at)
	delta := encodeDeltaPart(d)
	e.b = binary.BigEndian.AppendUint32(e.b, uint32(len(delta)))
	e.b = append(e.b, delta...)
	return e.b
}

// DecodeDeltaImage parses a delta checkpoint file.
func DecodeDeltaImage(data []byte) (*DeltaImage, error) {
	if len(data) < len(DeltaHeader)+8 {
		return nil, ErrTruncated
	}
	if !IsDeltaImage(data) {
		return nil, ErrBadMagic
	}
	rest := data[len(DeltaHeader):]
	if len(rest) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint32(len(rest)) < n {
		return nil, ErrTruncated
	}
	code, err := DecodeCode(rest[:n])
	if err != nil {
		return nil, err
	}
	rest = rest[n:]
	if len(rest) < 4 {
		return nil, ErrTruncated
	}
	m := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint32(len(rest)) != m {
		return nil, ErrTruncated
	}
	out, err := decodeDeltaPart(rest)
	if err != nil {
		return nil, err
	}
	out.Code = *code
	return out, nil
}

// RebuildImage reconstructs the full Image a delta chain describes: the
// chain's full base, then each delta applied oldest-first. The result is
// bit-equivalent to the full checkpoint the last delta's capture would
// have produced.
func RebuildImage(base *Image, deltas ...*DeltaImage) (*Image, error) {
	if base == nil {
		return nil, fmt.Errorf("wire: rebuild needs a full base image")
	}
	if len(deltas) == 0 {
		cp := *base
		return &cp, nil
	}
	heapDeltas := make([]*heap.DeltaSnapshot, len(deltas))
	for i, d := range deltas {
		heapDeltas[i] = &d.Delta
	}
	snap, err := heap.RebuildSnapshot(base.State.Heap, heapDeltas...)
	if err != nil {
		return nil, err
	}
	last := deltas[len(deltas)-1]
	out := &Image{
		Code:  last.Code,
		State: StatePart{Heap: snap, Conts: last.Conts},
	}
	if len(out.Code.Program) == 0 && !out.Code.ByReference() {
		out.Code.Program, out.Code.Hash = base.Code.Program, base.Code.Hash
	}
	return out, nil
}
