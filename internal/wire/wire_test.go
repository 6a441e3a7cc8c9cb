package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/spec"
)

func sampleImage() *Image {
	return &Image{
		Code: CodePart{
			Name:      "proc-7",
			Program:   []byte("not-really-fir-but-opaque-here"),
			Label:     12,
			EnvIndex:  3,
			TableLen:  16,
			HeapWords: 40,
			Args:      []int64{1, -2, 3},
			Seed:      42,
		},
		State: StatePart{
			Heap: &heap.Snapshot{
				TableLen: 16,
				Entries: []heap.EntrySnap{
					{Idx: 0, Level: 0, Words: []heap.Value{heap.IntVal(5), heap.FloatVal(2.5)}},
					{Idx: 3, Level: 1, Words: []heap.Value{heap.PtrVal(0, 1), heap.FunVal(2)}},
				},
				Levels: []heap.LevelSnap{
					{
						Shadows: []heap.ShadowSnap{{Idx: 3, OldLevel: 0, Words: []heap.Value{heap.IntVal(-1), heap.IntVal(0)}}},
						Allocs:  []int64{5},
					},
				},
			},
			Conts: []spec.Continuation{
				{FnIndex: 4, Args: []heap.Value{heap.PtrVal(3, 0), heap.IntVal(9)}},
			},
		},
	}
}

func TestCodePartRoundTrip(t *testing.T) {
	c := sampleImage().Code
	got, err := DecodeCode(EncodeCode(&c))
	if err != nil {
		t.Fatalf("DecodeCode: %v", err)
	}
	if got.Name != c.Name || string(got.Program) != string(c.Program) ||
		got.Label != c.Label || got.EnvIndex != c.EnvIndex ||
		got.TableLen != c.TableLen || got.HeapWords != c.HeapWords || got.Seed != c.Seed {
		t.Fatalf("round trip changed code part: %+v vs %+v", got, c)
	}
	if len(got.Args) != 3 || got.Args[1] != -2 {
		t.Fatalf("args = %v", got.Args)
	}
}

// TestCodePartByReference: a code part that names its program by hash
// round-trips as one (no program bytes, the hash intact), an inline one
// stays inline, and a hash field of any length but 0 or 32 is refused.
func TestCodePartByReference(t *testing.T) {
	c := sampleImage().Code
	inline, err := DecodeCode(EncodeCode(&c))
	if err != nil {
		t.Fatal(err)
	}
	if inline.ByReference() || inline.Hash != ([sha256.Size]byte{}) {
		t.Fatalf("inline code part decoded as by reference (hash %x)", inline.Hash)
	}

	ref := c
	ref.Hash = sha256.Sum256(c.Program)
	ref.Program = nil
	data := EncodeCode(&ref)
	if want := len(EncodeCode(&c)) - len(c.Program) + sha256.Size; len(data) != want {
		t.Fatalf("by-reference code part is %d B, want %d", len(data), want)
	}
	got, err := DecodeCode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ByReference() || got.Hash != ref.Hash || len(got.Program) != 0 || got.Name != c.Name {
		t.Fatalf("by-reference code part did not round-trip: %+v", got)
	}

	for _, n := range []int{1, 31, 33} {
		e := &enc{b: []byte(codeMagic)}
		e.b = append(e.b, codeVersion)
		e.str("p")
		e.bytes(nil)
		e.bytes(make([]byte, n))
		e.u(0)
		e.i(0)
		e.u(0)
		e.u(0)
		e.u(0)
		e.i(0)
		e.check(0)
		if _, err := DecodeCode(e.b); err == nil {
			t.Fatalf("a %d-byte hash decoded", n)
		}
	}
}

func TestStatePartRoundTrip(t *testing.T) {
	s := sampleImage().State
	got, err := DecodeState(EncodeState(&s))
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if !got.Heap.Equal(s.Heap) {
		t.Fatal("heap snapshot changed in round trip")
	}
	if len(got.Conts) != 1 || got.Conts[0].FnIndex != 4 || len(got.Conts[0].Args) != 2 {
		t.Fatalf("conts = %+v", got.Conts)
	}
	if !got.Conts[0].Args[0].Equal(heap.PtrVal(3, 0)) {
		t.Fatalf("cont arg = %s", got.Conts[0].Args[0])
	}
}

func TestImageRoundTripAndHeader(t *testing.T) {
	img := sampleImage()
	data := EncodeImage(img)
	if string(data[:len(ExecHeader)]) != ExecHeader {
		t.Fatalf("checkpoint file missing executable header; starts %q", data[:12])
	}
	got, err := DecodeImage(data)
	if err != nil {
		t.Fatalf("DecodeImage: %v", err)
	}
	if got.Code.Name != img.Code.Name || !got.State.Heap.Equal(img.State.Heap) {
		t.Fatal("image round trip changed contents")
	}
}

func TestCorruptionDetected(t *testing.T) {
	img := sampleImage()
	code := EncodeCode(&img.Code)
	for i := 0; i < len(code); i += 5 {
		bad := make([]byte, len(code))
		copy(bad, code)
		bad[i] ^= 0xFF
		if _, err := DecodeCode(bad); err == nil {
			t.Fatalf("code corruption at %d undetected", i)
		}
	}
	state := EncodeState(&img.State)
	for i := 0; i < len(state); i += 11 {
		bad := make([]byte, len(state))
		copy(bad, state)
		bad[i] ^= 0xFF
		if _, err := DecodeState(bad); err == nil {
			t.Fatalf("state corruption at %d undetected", i)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	img := sampleImage()
	data := EncodeImage(img)
	for _, n := range []int{0, 5, len(ExecHeader), len(ExecHeader) + 3, len(data) - 1} {
		if _, err := DecodeImage(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
	if _, err := DecodeImage(append([]byte("#!wrong-hdr\n"), data[12:]...)); err == nil {
		t.Fatal("bad header undetected")
	}
}

func TestValueEncodingQuick(t *testing.T) {
	f := func(ints []int64, floats []float64, ptrIdx []int64) bool {
		var words []heap.Value
		for _, v := range ints {
			words = append(words, heap.IntVal(v))
		}
		for _, v := range floats {
			if math.IsNaN(v) {
				v = 0 // NaN never compares equal; equality is tested elsewhere
			}
			words = append(words, heap.FloatVal(v))
		}
		for i, v := range ptrIdx {
			if v < 0 {
				v = -v
			}
			words = append(words, heap.PtrVal(v, int64(i)))
			words = append(words, heap.FunVal(v%100))
		}
		s := &StatePart{Heap: &heap.Snapshot{
			TableLen: 1,
			Entries:  []heap.EntrySnap{{Idx: 0, Words: words}},
		}}
		got, err := DecodeState(EncodeState(s))
		if err != nil {
			return false
		}
		return got.Heap.Equal(s.Heap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// reversion rewrites a part's version byte and re-seals its checksum.
func reversion(part []byte, magic string, v byte) []byte {
	b := bytes.Clone(part[:len(part)-4])
	b[len(magic)] = v
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// stateBytes assembles a state part by hand, for inputs the encoder
// never writes: head writes everything after the version byte.
func stateBytes(version byte, head func(e *enc)) []byte {
	e := &enc{b: []byte(statMagic)}
	e.b = append(e.b, version)
	head(e)
	e.check(0)
	return e.b
}

// TestOldVersionRefused: a version-1 state part (one kind byte per value)
// is refused with ErrVersion, not misread as runs, alone, inside a
// checkpoint file and as a delta part.
func TestOldVersionRefused(t *testing.T) {
	img := sampleImage()
	old := func(part []byte, magic string) []byte {
		if part[len(magic)] != stateVersion {
			t.Fatalf("%s part has version %d", magic, part[len(magic)])
		}
		return reversion(part, magic, 1)
	}
	state := old(EncodeState(&img.State), statMagic)
	if _, err := DecodeState(state); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 state part: err = %v, want ErrVersion", err)
	}
	file := EncodeImage(img)
	file = append(file[:len(file)-len(state)], state...)
	if _, err := DecodeImage(file); !errors.Is(err, ErrVersion) {
		t.Fatalf("checkpoint file with a version-1 state part: err = %v, want ErrVersion", err)
	}
	if _, err := decodeDeltaPart(old(encodeDeltaPart(sampleDelta()), deltaMagic)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 delta part: err = %v, want ErrVersion", err)
	}
}

// TestOldCodeVersionRefused: a version-1 code part (no hash field) is
// refused with ErrVersion alone, inside a checkpoint file and inside a
// delta file, not misread with its label as a hash length.
func TestOldCodeVersionRefused(t *testing.T) {
	img := sampleImage()
	code := EncodeCode(&img.Code)
	if code[len(codeMagic)] != codeVersion {
		t.Fatalf("code part has version %d", code[len(codeMagic)])
	}
	v1 := reversion(code, codeMagic, 1)
	if _, err := DecodeCode(v1); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 code part: err = %v, want ErrVersion", err)
	}
	file := EncodeImage(img)
	at := len(ExecHeader) + 4
	file = append(append(file[:at:at], v1...), file[at+len(v1):]...)
	if _, err := DecodeImage(file); !errors.Is(err, ErrVersion) {
		t.Fatalf("checkpoint file with a version-1 code part: err = %v, want ErrVersion", err)
	}
	d := sampleDelta()
	delta := EncodeDeltaImage(d)
	dcode := EncodeCode(&d.Code)
	at = len(DeltaHeader) + 4
	delta = append(append(delta[:at:at], reversion(dcode, codeMagic, 1)...), delta[at+len(dcode):]...)
	if _, err := DecodeDeltaImage(delta); !errors.Is(err, ErrVersion) {
		t.Fatalf("delta file with a version-1 code part: err = %v, want ErrVersion", err)
	}
}

// TestRunCountsBounded: a run may not claim more values than its list
// has left, fewer than minRun, more payload-carrying values than there
// are bytes left, or — for payload-free unit values — more values over
// the whole decode than the input has bytes.
func TestRunCountsBounded(t *testing.T) {
	run := func(e *enc, k heap.Kind, n uint64) {
		e.b = append(e.b, runFlag|byte(k))
		e.u(n)
	}
	entry := func(e *enc, n uint64, body func()) {
		e.i(0)
		e.u(0)
		e.u(n)
		body()
	}
	cases := []struct {
		name, want string // want: the refusal names this bound
		data       []byte
	}{
		{"run longer than its list", "with 3 left", stateBytes(stateVersion, func(e *enc) {
			e.u(1)
			e.u(1)
			entry(e, 3, func() { run(e, heap.KInt, 4); e.i(1); e.i(2); e.i(3); e.i(4) })
			e.u(0)
			e.u(0)
		})},
		{"run shorter than minRun", "run of 2", stateBytes(stateVersion, func(e *enc) {
			e.u(1)
			e.u(1)
			entry(e, 2, func() { run(e, heap.KInt, 2); e.i(1); e.i(2) })
			e.u(0)
			e.u(0)
		})},
		{"run longer than the input", "in 2 bytes", stateBytes(stateVersion, func(e *enc) {
			e.u(2)
			e.u(2)
			entry(e, 60, func() { run(e, heap.KInt, 60); e.b = append(e.b, make([]byte, 60)...) })
			entry(e, 60, func() { run(e, heap.KFloat, 60) })
			e.u(0)
			e.u(0)
		})},
		{"unit runs outgrow the input", "more unit values than input bytes", stateBytes(stateVersion, func(e *enc) {
			e.u(1)
			e.u(0)
			e.u(0)
			e.u(80)
			for i := 0; i < 80; i++ {
				e.i(0)
				entry(e, 100, func() { run(e, heap.KUnit, 100) })
			}
		})},
	}
	for _, c := range cases {
		if _, err := DecodeState(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal mentioning %q", c.name, err, c.want)
		}
	}

	// Within those bounds the same shapes decode.
	ok := stateBytes(stateVersion, func(e *enc) {
		e.u(1)
		e.u(1)
		entry(e, 4, func() {
			run(e, heap.KInt, 3)
			e.i(1)
			e.i(2)
			e.i(3)
			e.b = append(e.b, byte(heap.KInt))
			e.i(4)
		})
		e.u(0)
		e.u(1)
		e.i(0)
		e.u(5)
		run(e, heap.KUnit, 5)
	})
	s, err := DecodeState(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Heap.Entries[0].Words) != 4 || s.Heap.Entries[0].Words[3].I != 4 || len(s.Conts[0].Args) != 5 {
		t.Fatalf("decoded %+v", s)
	}
}

// TestRunLayout pins the v2 list layout on the encoder side: stretches
// of minRun or more share one marker byte, shorter ones keep a kind byte
// per value.
func TestRunLayout(t *testing.T) {
	vs := []heap.Value{heap.IntVal(1), heap.IntVal(2), heap.FloatVal(0), heap.IntVal(3), heap.IntVal(4), heap.IntVal(5)}
	e := &enc{}
	e.values(vs)
	want := []byte{6, byte(heap.KInt), 2, byte(heap.KInt), 4, byte(heap.KFloat), 0, 0, 0, 0, 0, 0, 0, 0, runFlag | byte(heap.KInt), 3, 6, 8, 10}
	if !bytes.Equal(e.b, want) {
		t.Fatalf("encoded % x, want % x", e.b, want)
	}
}
