package wire

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/heap"
	"repro/internal/spec"
)

// FuzzWireDecode feeds arbitrary bytes to every decoder entry point: a
// checkpoint file read off the shared store (or a migration frame off the
// network) is attacker-controlled input, so malformed, truncated or
// bit-flipped images must come back as errors — never a panic, and never
// an allocation sized off an unvalidated count. Decoded images are
// re-encoded and re-decoded to check the accepted subset round-trips.
func FuzzWireDecode(f *testing.F) {
	img := sampleImage()
	whole := EncodeImage(img)
	f.Add(whole)
	f.Add(EncodeCode(&img.Code))
	f.Add(EncodeState(&img.State))
	f.Add([]byte(ExecHeader))
	f.Add([]byte{})
	// A truncated and a bit-flipped image seed the interesting corners.
	f.Add(whole[:len(whole)/2])
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Delta-image frames: whole, truncated, bit-flipped, plus a head ref.
	delta := EncodeDeltaImage(sampleDelta())
	f.Add(delta)
	f.Add(delta[:len(delta)/2])
	dflipped := bytes.Clone(delta)
	dflipped[2*len(dflipped)/3] ^= 0x04
	f.Add(dflipped)
	f.Add(EncodeRef("name@3"))
	f.Add([]byte(DeltaHeader))
	f.Add([]byte(RefHeader))
	// Run-encoded states: a ledger-shaped one (one big int block, which is
	// one run, beside a small migrate_env), a mixed-kind block whose
	// stretches straddle minRun, a run of payload-free unit values, and a
	// version-1 image the decoder must refuse.
	ledger := make([]heap.Value, 2048)
	for i := range ledger {
		ledger[i] = heap.IntVal(int64(i*40503) % 1000003)
	}
	f.Add(EncodeImage(&Image{Code: img.Code, State: StatePart{Heap: &heap.Snapshot{
		TableLen: 2,
		Entries: []heap.EntrySnap{
			{Idx: 0, Words: ledger},
			{Idx: 1, Words: []heap.Value{heap.FunVal(3), heap.PtrVal(0, 0)}},
		},
	}}}))
	mixed := []heap.Value{heap.IntVal(1), heap.FloatVal(2), heap.FloatVal(3), heap.PtrVal(0, 1), heap.PtrVal(0, 2), heap.PtrVal(0, 3),
		heap.Null(), heap.FunVal(1), heap.FunVal(2), heap.FunVal(3), heap.FunVal(4), heap.IntVal(-1), heap.IntVal(-2), heap.IntVal(-3)}
	f.Add(EncodeState(&StatePart{Heap: &heap.Snapshot{TableLen: 1, Entries: []heap.EntrySnap{{Idx: 0, Words: mixed}}}}))
	f.Add(EncodeState(&StatePart{Heap: &heap.Snapshot{}, Conts: []spec.Continuation{
		{FnIndex: 1, Args: []heap.Value{heap.UnitVal(), heap.UnitVal(), heap.UnitVal(), heap.UnitVal(), heap.IntVal(5)}},
	}}))
	state := EncodeState(&img.State)
	codeEnd := len(whole) - len(state)
	f.Add(append(whole[:codeEnd:codeEnd], reversion(state, statMagic, 1)...))
	// By-reference code parts: the hash without the program, alone, in a
	// checkpoint file, with a flipped hash byte, and a version-1 code part.
	ref := *img
	ref.Code.Hash = sha256.Sum256(img.Code.Program)
	ref.Code.Program = nil
	f.Add(EncodeCode(&ref.Code))
	refFile := EncodeImage(&ref)
	f.Add(refFile)
	rflipped := bytes.Clone(refFile)
	rflipped[len(ExecHeader)+4+len(codeMagic)+1+1+len(img.Code.Name)+1+1+3] ^= 0x10
	f.Add(rflipped)
	f.Add(reversion(EncodeCode(&img.Code), codeMagic, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := DecodeCode(data); err == nil {
			back, err := DecodeCode(EncodeCode(c))
			if err != nil {
				t.Fatalf("re-decode of accepted code part failed: %v", err)
			}
			if back.Name != c.Name || back.Label != c.Label || len(back.Args) != len(c.Args) ||
				back.Hash != c.Hash || back.ByReference() != c.ByReference() {
				t.Fatalf("code part did not round-trip: %+v vs %+v", back, c)
			}
		}
		if s, err := DecodeState(data); err == nil {
			if _, err := DecodeState(EncodeState(s)); err != nil {
				t.Fatalf("re-decode of accepted state part failed: %v", err)
			}
		}
		if img, err := DecodeImage(data); err == nil {
			if _, err := DecodeImage(EncodeImage(img)); err != nil {
				t.Fatalf("re-decode of accepted image failed: %v", err)
			}
		}
		if d, err := DecodeDeltaImage(data); err == nil {
			back, err := DecodeDeltaImage(EncodeDeltaImage(d))
			if err != nil {
				t.Fatalf("re-decode of accepted delta image failed: %v", err)
			}
			if back.Base != d.Base || back.Seq != d.Seq ||
				len(back.Delta.Changed) != len(d.Delta.Changed) ||
				len(back.Delta.Freed) != len(d.Delta.Freed) {
				t.Fatalf("delta image did not round-trip: %+v vs %+v", back, d)
			}
		}
		if target, ok := DecodeRef(data); ok {
			if back, ok2 := DecodeRef(EncodeRef(target)); !ok2 || back != target {
				t.Fatalf("ref did not round-trip: %q", target)
			}
		}
	})
}
