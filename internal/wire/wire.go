// Package wire defines the canonical, architecture-independent binary
// encoding of a packed MCC process image (§4.2.2). An image has two parts,
// mirroring the paper's two-phase migrate protocol:
//
//   - the code part — FIR program, resume label, pointer-table and heap
//     sizes, and the index of the migrate_env block holding the live
//     variables — which the target decodes, type-checks and recompiles
//     before anything else is sent;
//   - the state part — the heap snapshot (blocks, checkpoint records,
//     speculation levels) and the saved speculation continuations — which
//     the target uses to reconstruct the heap and resume.
//
// Everything is explicit varints or big-endian fixed-width words, so the
// encoding is identical on every architecture; integrity is protected by a
// trailing CRC-32 on each part. Each part opens with a magic and a format
// version: the code part is version 2, the state part (and the delta part,
// delta.go, which shares its value lists) is version 2. A decoder refuses
// any other version with ErrVersion.
//
// A code part carries its program inline or by reference. By
// reference means the SHA-256 of the program's encoding and no program
// bytes: the checkpoint pipeline stores each program once, as a code
// object beside the images that name it, and the reader resolves the
// hash (migrate.FetchImage). Version 1 code parts had no hash field.
//
// A value list — a block's words, a checkpoint record's words, a
// continuation's arguments — is a uvarint count followed by the values in
// runs. A value on its own is a kind byte and its payload: a zigzag varint
// for int and fun, eight big-endian bytes for float, two zigzag varints
// (table index, offset) for ptr, nothing for unit. A run of at least three
// consecutive values of one kind is written as one byte 0x80|kind, a
// uvarint run length, and then the run's payloads back to back with no
// kind bytes. Heap blocks are mostly homogeneous (an array of ints is one
// run), so most kind bytes vanish, and because a shorter stretch keeps
// the per-value form no list encodes larger than it would with one kind
// byte per value.
//
// The encoder reads *heap.Snapshot values, whether copied (Snapshot), a
// window on a live arena (heap.View, the checkpoint path) or decoded, so
// every source of the same state yields the same bytes.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/heap"
	"repro/internal/spec"
)

const (
	codeMagic = "MCCCOD"
	statMagic = "MCCSTA"
	// ExecHeader prefixes checkpoint files: the paper formats checkpoints
	// as executable files so a resurrection daemon can simply execute the
	// saved checkpoint.
	ExecHeader = "#!mcc-run\n"

	// codeVersion and stateVersion are the format versions of the code
	// part and of the state and delta parts.
	codeVersion  = 2
	stateVersion = 2

	// runFlag marks a kind byte that opens a run of same-kind values;
	// minRun is the shortest stretch written as a run.
	runFlag = 0x80
	minRun  = 3
)

// CodePart is the first transmission of a migration: everything the target
// needs to verify and recompile the program.
type CodePart struct {
	// Name identifies the process.
	Name string
	// Program is the canonical FIR encoding (fir.EncodeProgram). It is
	// empty in a code part that refers to its program by Hash.
	Program []byte
	// Hash is set, with Program empty, in a code part that names its
	// program by reference: it is the SHA-256 of the program's encoding,
	// the name of the code object holding it. It is all zero otherwise;
	// beside an inline Program it is ignored.
	Hash [sha256.Size]byte
	// Label is the migrate label i identifying the migration point.
	Label int
	// EnvIndex is the pointer-table index of the migrate_env block holding
	// the function value and live variables to resume with.
	EnvIndex int64
	// TableLen and HeapWords announce the sizes of the pointer table and
	// heap ("size of heap and pointer tables", §4.2.2) so the target can
	// pre-size its arena.
	TableLen  int
	HeapWords int
	// Args and Seed carry the process arguments and PRNG seed so externs
	// behave identically after resumption.
	Args []int64
	Seed int64
}

// ByReference reports whether the code part names its program by hash
// instead of carrying it.
func (c *CodePart) ByReference() bool {
	return len(c.Program) == 0 && c.Hash != [sha256.Size]byte{}
}

// StatePart is the second transmission: heap contents and speculation
// continuations.
type StatePart struct {
	Heap  *heap.Snapshot
	Conts []spec.Continuation
}

// Image is a complete packed process (both parts), the unit stored in
// checkpoint files.
type Image struct {
	Code  CodePart
	State StatePart
}

// Errors returned by decoding.
var (
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadMagic  = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported format version")
)

// enc appends an encoding to b; callers hand in a buffer to reuse.
type enc struct {
	b []byte
}

// grow makes room for n more bytes without reallocating mid-part.
func (e *enc) grow(n int) { e.b = slices.Grow(e.b, n) }

func (e *enc) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) i(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) bytes(b []byte) {
	e.u(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) f64(f float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(f))
}

// payloads writes the payloads of vs, all of kind k, with no kind bytes.
func (e *enc) payloads(k heap.Kind, vs []heap.Value) {
	switch k {
	case heap.KInt, heap.KFun:
		for i := range vs {
			e.i(vs[i].I)
		}
	case heap.KFloat:
		for i := range vs {
			e.f64(vs[i].F)
		}
	case heap.KPtr:
		for i := range vs {
			e.i(vs[i].I)
			e.i(vs[i].Off)
		}
	}
}

// values writes a value list: the count, then each maximal stretch of
// same-kind values as a run when it is at least minRun long, otherwise
// as kind byte + payload per value.
func (e *enc) values(vs []heap.Value) {
	e.u(uint64(len(vs)))
	for i := 0; i < len(vs); {
		k := vs[i].Kind
		j := i + 1
		for j < len(vs) && vs[j].Kind == k {
			j++
		}
		if j-i >= minRun {
			e.b = append(e.b, runFlag|byte(k))
			e.u(uint64(j - i))
			e.payloads(k, vs[i:j])
		} else {
			for ; i < j; i++ {
				e.b = append(e.b, byte(k))
				e.payloads(k, vs[i:i+1])
			}
		}
		i = j
	}
}

// check appends the CRC-32 of everything written since offset start, so
// a part encoded mid-buffer carries the same trailer as one encoded alone.
func (e *enc) check(start int) {
	e.b = binary.BigEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b[start:]))
}

// reserve appends a 4-byte length prefix to be filled by fill once the
// part after it is written, and returns its offset.
func (e *enc) reserve() int {
	e.b = append(e.b, 0, 0, 0, 0)
	return len(e.b) - 4
}

func (e *enc) fill(at int) {
	binary.BigEndian.PutUint32(e.b[at:at+4], uint32(len(e.b)-at-4))
}

type dec struct {
	data []byte
	pos  int
	err  error
	// units counts unit values decoded from runs. A unit has no payload,
	// so a run of them costs a few bytes however long it is; the count is
	// capped at the input length, which keeps the values a decode can
	// produce linear in its input like every other kind's.
	units uint64
}

func newDec(data []byte, magic string, version byte) (*dec, error) {
	if len(data) < len(magic)+1+4 {
		return nil, ErrTruncated
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, ErrChecksum
	}
	d := &dec{data: body}
	if string(d.take(len(magic))) != magic {
		return nil, ErrBadMagic
	}
	if v := d.byte(); v != version {
		return nil, fmt.Errorf("%w %d for %s (want %d)", ErrVersion, v, magic, version)
	}
	return d, nil
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: decode at %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.data) {
		d.fail("need %d bytes", n)
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *dec) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.pos += n
	return v
}

func (d *dec) count() int {
	n := d.u()
	if n > uint64(len(d.data)) {
		d.fail("implausible count %d", n)
		return 0
	}
	return int(n)
}

// hash reads an optional SHA-256: a count of zero (none) or
// sha256.Size, then the bytes.
func (d *dec) hash() (h [sha256.Size]byte) {
	switch n := d.count(); n {
	case 0:
	case sha256.Size:
		copy(h[:], d.take(n))
	default:
		d.fail("hash of %d bytes", n)
	}
	return h
}

func (d *dec) str() string {
	n := d.count()
	return string(d.take(n))
}

func (d *dec) blob() []byte {
	n := d.count()
	b := d.take(n)
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *dec) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// payload reads one value of kind k (its kind byte already consumed).
func (d *dec) payload(k heap.Kind) heap.Value {
	switch k {
	case heap.KUnit:
		return heap.UnitVal()
	case heap.KInt:
		return heap.IntVal(d.i())
	case heap.KFun:
		return heap.FunVal(d.i())
	case heap.KFloat:
		return heap.FloatVal(d.f64())
	case heap.KPtr:
		i := d.i()
		off := d.i()
		return heap.PtrVal(i, off)
	default:
		d.fail("unknown value kind %d", k)
		return heap.Value{}
	}
}

// values reads a value list. A run's length is checked before anything
// is appended: it must fit in what is left of the list, and a run of a
// kind with a payload (at least one byte per value) in what is left of
// the input, so no count read off the wire sizes work on its own.
func (d *dec) values() []heap.Value {
	n := d.count()
	out := make([]heap.Value, 0, n)
	for len(out) < n && d.err == nil {
		b := d.byte()
		if b&runFlag == 0 {
			out = append(out, d.payload(heap.Kind(b)))
			continue
		}
		k, r := heap.Kind(b&^runFlag), d.u()
		switch left := uint64(n - len(out)); {
		case d.err != nil:
		case r < minRun || r > left:
			d.fail("run of %d %s values in a list with %d left", r, k, left)
		case k == heap.KUnit:
			if d.units += r; d.units > uint64(len(d.data)) {
				d.fail("more unit values than input bytes")
				break
			}
			for ; r > 0; r-- {
				out = append(out, heap.UnitVal())
			}
		case r > uint64(len(d.data)-d.pos):
			d.fail("run of %d %s values in %d bytes", r, k, len(d.data)-d.pos)
		default:
			for ; r > 0 && d.err == nil; r-- {
				out = append(out, d.payload(k))
			}
		}
	}
	return out
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.data) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.data)-d.pos)
	}
	return nil
}

// EncodeCode serializes the code part.
func EncodeCode(c *CodePart) []byte {
	e := &enc{}
	e.codePart(c)
	return e.b
}

// codePart appends the code part (magic through checksum).
func (e *enc) codePart(c *CodePart) {
	start := len(e.b)
	e.grow(64 + len(c.Name) + len(c.Program) + 10*len(c.Args))
	e.b = append(e.b, codeMagic...)
	e.b = append(e.b, codeVersion)
	e.str(c.Name)
	e.bytes(c.Program)
	if c.Hash == ([sha256.Size]byte{}) {
		e.u(0)
	} else {
		e.bytes(c.Hash[:])
	}
	e.u(uint64(c.Label))
	e.i(c.EnvIndex)
	e.u(uint64(c.TableLen))
	e.u(uint64(c.HeapWords))
	e.u(uint64(len(c.Args)))
	for _, a := range c.Args {
		e.i(a)
	}
	e.i(c.Seed)
	e.check(start)
}

// DecodeCode parses a code part.
func DecodeCode(data []byte) (*CodePart, error) {
	d, err := newDec(data, codeMagic, codeVersion)
	if err != nil {
		return nil, err
	}
	c := &CodePart{}
	c.Name = d.str()
	c.Program = d.blob()
	c.Hash = d.hash()
	c.Label = int(d.u())
	c.EnvIndex = d.i()
	c.TableLen = int(d.u())
	c.HeapWords = int(d.u())
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		c.Args = append(c.Args, d.i())
	}
	c.Seed = d.i()
	if err := d.done(); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeState serializes the state part.
func EncodeState(s *StatePart) []byte {
	e := &enc{}
	e.statePart(s)
	return e.b
}

// statePart appends the state part (magic through checksum).
func (e *enc) statePart(s *StatePart) {
	start := len(e.b)
	words := 0
	for _, en := range s.Heap.Entries {
		words += len(en.Words)
	}
	for _, lv := range s.Heap.Levels {
		for _, sh := range lv.Shadows {
			words += len(sh.Words)
		}
		words += len(lv.Allocs)
	}
	for _, c := range s.Conts {
		words += len(c.Args)
	}
	// Typical-case reservation: in runs, a small-int word is a one- to
	// four-byte varint. Budgeting the worst case (20 bytes for a ptr)
	// would allocate several times the final size; one residual growth
	// for a float-heavy heap is cheaper than that.
	e.grow(64 + 24*(len(s.Heap.Entries)+len(s.Conts)+len(s.Heap.Levels)) + 4*words)
	e.b = append(e.b, statMagic...)
	e.b = append(e.b, stateVersion)
	snap := s.Heap
	e.u(uint64(snap.TableLen))
	e.u(uint64(len(snap.Entries)))
	for _, en := range snap.Entries {
		e.i(en.Idx)
		e.u(uint64(en.Level))
		e.values(en.Words)
	}
	e.u(uint64(len(snap.Levels)))
	for _, lv := range snap.Levels {
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
	e.u(uint64(len(s.Conts)))
	for _, c := range s.Conts {
		e.i(c.FnIndex)
		e.values(c.Args)
	}
	e.check(start)
}

// DecodeState parses a state part.
func DecodeState(data []byte) (*StatePart, error) {
	d, err := newDec(data, statMagic, stateVersion)
	if err != nil {
		return nil, err
	}
	snap := &heap.Snapshot{TableLen: int(d.u())}
	ne := d.count()
	for i := 0; i < ne && d.err == nil; i++ {
		en := heap.EntrySnap{Idx: d.i(), Level: int(d.u())}
		en.Words = d.values()
		snap.Entries = append(snap.Entries, en)
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
		snap.Levels = append(snap.Levels, lv)
	}
	s := &StatePart{Heap: snap}
	nc := d.count()
	for i := 0; i < nc && d.err == nil; i++ {
		c := spec.Continuation{FnIndex: d.i()}
		c.Args = d.values()
		s.Conts = append(s.Conts, c)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeImage serializes a complete image as a checkpoint file: the
// executable header followed by length-prefixed code and state parts.
func EncodeImage(img *Image) []byte {
	return AppendImage(nil, img)
}

// AppendImage appends img's checkpoint-file encoding (EncodeImage's
// layout) to buf and returns the extended slice. Both parts are encoded
// in place, so a checkpoint loop that hands back the same buffer every
// interval allocates nothing here once the buffer has grown to size.
func AppendImage(buf []byte, img *Image) []byte {
	e := enc{b: buf}
	e.b = append(e.b, ExecHeader...)
	at := e.reserve()
	e.codePart(&img.Code)
	e.fill(at)
	at = e.reserve()
	e.statePart(&img.State)
	e.fill(at)
	return e.b
}

// DecodeImage parses a checkpoint file.
func DecodeImage(data []byte) (*Image, error) {
	if len(data) < len(ExecHeader)+8 {
		return nil, ErrTruncated
	}
	if string(data[:len(ExecHeader)]) != ExecHeader {
		return nil, ErrBadMagic
	}
	rest := data[len(ExecHeader):]
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
	state, err := DecodeState(rest)
	if err != nil {
		return nil, err
	}
	return &Image{Code: *code, State: *state}, nil
}
