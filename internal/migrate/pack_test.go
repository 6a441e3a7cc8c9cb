package migrate

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/spec"
	"repro/internal/wire"
)

// packRuntime is a minimal rt.Runtime over a real heap whose roots are
// the blocks a test builds plus everything pinned, so a pack's major
// collection keeps exactly what the test made reachable.
type packRuntime struct {
	h     *heap.Heap
	mgr   *spec.Manager
	prog  *fir.Program
	roots []heap.Value
}

func newPackRuntime() *packRuntime {
	h := heap.New(heap.Config{})
	r := &packRuntime{h: h, mgr: spec.New(h), prog: &fir.Program{}}
	h.AddRoots(func(yield func(heap.Value)) {
		for _, v := range r.roots {
			yield(v)
		}
	})
	return r
}

func (r *packRuntime) Name() string          { return "pack-test" }
func (r *packRuntime) Program() *fir.Program { return r.prog }
func (r *packRuntime) Heap() *heap.Heap      { return r.h }
func (r *packRuntime) Spec() *spec.Manager   { return r.mgr }
func (r *packRuntime) Stdout() io.Writer     { return io.Discard }
func (r *packRuntime) Pin(v heap.Value)      { r.roots = append(r.roots, v) }
func (r *packRuntime) Arg(i int64) int64     { return 100 + i }
func (r *packRuntime) NArgs() int64          { return 2 }
func (r *packRuntime) Rand(n int64) int64    { return 0 }

// block allocates a rooted block holding words.
func (r *packRuntime) block(t *testing.T, words []heap.Value) heap.Value {
	t.Helper()
	p, err := r.h.Alloc(int64(len(words)))
	if err != nil {
		t.Fatal(err)
	}
	r.roots = append(r.roots, p)
	for i, w := range words {
		if err := r.h.Store(p, int64(i), w); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// store writes one word, failing the test on error.
func (r *packRuntime) store(t *testing.T, p heap.Value, off int64, v heap.Value) {
	t.Helper()
	if err := r.h.Store(p, off, v); err != nil {
		t.Fatal(err)
	}
}

func ints(n int, f func(i int) int64) []heap.Value {
	out := make([]heap.Value, n)
	for i := range out {
		out[i] = heap.IntVal(f(i))
	}
	return out
}

// mixedWords cycles through every storable kind with stretches of 1, 2,
// 3, 4 and 130 words (130 crosses the one-byte run-length boundary), so
// the list mixes per-value stretches and runs of every kind.
func mixedWords(target heap.Value) []heap.Value {
	kinds := []func(i int) heap.Value{
		func(i int) heap.Value { return heap.IntVal(int64(i*i) - 5000) },
		func(i int) heap.Value { return heap.FloatVal(float64(i) * -1.25) },
		func(i int) heap.Value { return heap.PtrVal(target.I, int64(i%3)) },
		func(int) heap.Value { return heap.Null() },
		func(i int) heap.Value { return heap.FunVal(int64(i % 9)) },
	}
	var out []heap.Value
	n := 0
	for _, stretch := range []int{1, 2, 3, 4, 130, 2, 1, 3} {
		for _, kind := range kinds {
			for j := 0; j < stretch; j++ {
				out = append(out, kind(n))
				n++
			}
		}
	}
	return out
}

// packCases build the same heap on demand (each pack mutates the heap it
// reads, so the two encoders each get a fresh copy) and return the live
// variables the pack stores into migrate_env.
var packCases = []struct {
	name   string
	levels int // open speculation levels, each with checkpoint records
	build  func(t *testing.T, r *packRuntime) []heap.Value
}{
	{"homogeneous ints", 0, func(t *testing.T, r *packRuntime) []heap.Value {
		big := r.block(t, ints(4096, func(i int) int64 { return int64(i*40503) % 1000003 }))
		r.block(t, ints(2, func(i int) int64 { return -int64(i) }))
		r.block(t, nil)
		return []heap.Value{big, heap.IntVal(7)}
	}},
	{"every kind", 0, func(t *testing.T, r *packRuntime) []heap.Value {
		target := r.block(t, ints(3, func(i int) int64 { return int64(i) }))
		r.block(t, mixedWords(target))
		r.block(t, []heap.Value{heap.FloatVal(math.Inf(-1)), heap.FloatVal(0.5), heap.FloatVal(math.MaxFloat64), heap.FloatVal(-0.0)})
		r.block(t, []heap.Value{heap.Null(), heap.Null(), heap.Null(), heap.Null()})
		r.block(t, []heap.Value{heap.FunVal(1), heap.FunVal(2), heap.FunVal(3)})
		r.block(t, []heap.Value{heap.PtrVal(target.I, 0), heap.PtrVal(target.I, 2), heap.PtrVal(target.I, 1)})
		return []heap.Value{heap.IntVal(1), heap.FloatVal(2.5), target, heap.Null(), heap.FunVal(4)}
	}},
	{"open speculation", 2, func(t *testing.T, r *packRuntime) []heap.Value {
		target := r.block(t, ints(3, func(i int) int64 { return int64(i) }))
		big := r.block(t, ints(600, func(i int) int64 { return int64(i) << 20 }))
		mixed := r.block(t, mixedWords(target))
		units := []heap.Value{heap.UnitVal(), heap.UnitVal(), heap.UnitVal(), heap.IntVal(3), heap.UnitVal(), heap.UnitVal()}
		r.mgr.Enter(spec.Continuation{FnIndex: 2, Args: append(units, big, heap.FloatVal(1))})
		r.store(t, big, 10, heap.IntVal(-10))    // shadows big's committed copy
		r.store(t, mixed, 0, heap.FloatVal(9.5)) // and mixed's
		inner := r.block(t, mixedWords(big))     // allocated in level 1
		r.mgr.Enter(spec.Continuation{FnIndex: 5, Args: []heap.Value{heap.UnitVal(), inner}})
		r.store(t, inner, 3, heap.IntVal(33)) // shadows a level-1 copy
		r.store(t, big, 11, heap.IntVal(-11)) // big again, now from level 2
		r.block(t, ints(5, func(i int) int64 { return int64(i) * 1e12 }))
		return []heap.Value{inner, heap.IntVal(0)}
	}},
}

// TestAppendPackMatchesPack pins the checkpoint path's format to the
// transport's: encoding straight from the heap arena gives exactly the
// bytes of encoding Pack's deep copy by reference, the image restores to
// the heap it came from, and re-encoding the decoded image (a third
// source) gives the same bytes again. It also checks the run layout never loses to one
// kind byte per value on any list in these images.
func TestAppendPackMatchesPack(t *testing.T) {
	for _, tc := range packCases {
		t.Run(tc.name, func(t *testing.T) {
			r1 := newPackRuntime()
			img, err := Pack(r1, 7, 3, tc.build(t, r1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Code.Program, fir.EncodeProgram(r1.prog)) || img.Code.ByReference() {
				t.Fatal("Pack's code part does not carry the program inline")
			}
			want := wire.AppendImage(nil, byReference(img))

			r2 := newPackRuntime()
			args := tc.build(t, r2)
			prefix := []byte("already in the buffer")
			var view heap.Snapshot
			got, err := AppendPack(bytes.Clone(prefix), &view, r2, 7, 3, args)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Fatal("AppendPack overwrote the bytes already in its buffer")
			}
			if got = got[len(prefix):]; !bytes.Equal(got, want) {
				t.Fatalf("arena encoding (%d B) differs from AppendImage(Pack) (%d B)", len(got), len(want))
			}
			if len(img.State.Heap.Levels) != tc.levels {
				t.Fatalf("image has %d levels, want %d", len(img.State.Heap.Levels), tc.levels)
			}
			for i, lv := range img.State.Heap.Levels {
				if len(lv.Shadows) == 0 || len(lv.Allocs) == 0 {
					t.Fatalf("level %d has %d checkpoint records and %d allocations, want both", i+1, len(lv.Shadows), len(lv.Allocs))
				}
			}

			back, err := wire.DecodeImage(want)
			if err != nil {
				t.Fatal(err)
			}
			if again := wire.AppendImage(nil, back); !bytes.Equal(again, want) {
				t.Fatal("re-encoding the decoded image changed its bytes")
			}
			restored, err := heap.Restore(back.State.Heap, heap.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !restored.Snapshot().Equal(r2.h.Snapshot()) {
				t.Fatal("restored heap differs from the heap that was packed")
			}

			checkList := func(what string, vs []heap.Value) {
				t.Helper()
				if run, ref := listBytes(vs), perValueBytes(vs); run > ref {
					t.Fatalf("%s: %d values encode to %d B, one kind byte per value takes %d B", what, len(vs), run, ref)
				}
			}
			for _, e := range img.State.Heap.Entries {
				checkList("entry", e.Words)
			}
			for _, lv := range img.State.Heap.Levels {
				for _, sh := range lv.Shadows {
					checkList("shadow", sh.Words)
				}
			}
			for _, c := range img.State.Conts {
				checkList("continuation", c.Args)
			}
		})
	}
}

// listBytes is the encoded size of one value list: the size of a state
// part holding one block with these words, less the same part with an
// empty block, plus the one-byte count of the empty list.
func listBytes(vs []heap.Value) int {
	one := func(words []heap.Value) int {
		return len(wire.EncodeState(&wire.StatePart{Heap: &heap.Snapshot{
			TableLen: 1,
			Entries:  []heap.EntrySnap{{Idx: 0, Words: words}},
		}}))
	}
	return one(vs) - one(nil) + 1
}

// perValueBytes is a reference encoder's size for a value list in the
// per-value layout: the count, then a kind byte and the payload for
// every value.
func perValueBytes(vs []heap.Value) int {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(vs)))
	for _, v := range vs {
		n++
		switch v.Kind {
		case heap.KInt, heap.KFun:
			n += binary.PutVarint(tmp[:], v.I)
		case heap.KFloat:
			n += 8
		case heap.KPtr:
			n += binary.PutVarint(tmp[:], v.I) + binary.PutVarint(tmp[:], v.Off)
		}
	}
	return n
}
