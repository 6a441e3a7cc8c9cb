package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/wire"
)

func TestOpenSpecs(t *testing.T) {
	dir := t.TempDir()
	good := []string{
		"", "mem", "zmem",
		"dir:" + dir, "zdir:" + dir,
		"repl:3,mem,mem,mem",
		"repl:2,mem,dir:" + dir,
	}
	for _, spec := range good {
		if _, err := Open(spec, Options{}); err != nil {
			t.Errorf("Open(%q): %v", spec, err)
		}
	}
	bad := []string{
		"bogus", "dir:", "zdir:", "tcp:",
		"repl:", "repl:3,mem,mem", "repl:0,mem", "repl:x,mem",
		"repl:1,repl:1,mem",
	}
	for _, spec := range bad {
		if _, err := Open(spec, Options{}); err == nil {
			t.Errorf("Open(%q) succeeded, want error", spec)
		}
	}
}

func TestOpenLayering(t *testing.T) {
	s, err := Open("repl:3,mem,mem,mem", Options{GateLimit: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Gate); !ok {
		t.Fatalf("outermost layer is %T, want *Gate", s)
	}
	if FindReplicated(s) == nil {
		t.Fatal("FindReplicated failed to reach the replica layer through gate+obs")
	}
	if err := s.Put("x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("x")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get through full stack = %q, %v", got, err)
	}
}

// compressible returns n bytes with long runs and repeated structure —
// the shape of a heap snapshot.
func compressible(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i / 997)
	}
	return out
}

func TestCompressedRoundTrip(t *testing.T) {
	mem := cluster.NewMemStore()
	reg := obs.NewRegistry()
	z := NewCompressed(mem, Options{Registry: reg})

	// Multi-chunk compressible payload.
	data := compressible(300 << 10)
	if err := z.Put("big", data); err != nil {
		t.Fatal(err)
	}
	got, err := z.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip diverged")
	}
	stored, _ := mem.Get("big")
	if len(stored)*2 > len(data) {
		t.Fatalf("compressible payload stored at %d bytes (raw %d), want >=2x smaller", len(stored), len(data))
	}
	if v := reg.Counter("store.z.raw_bytes").Value(); v != uint64(len(data)) {
		t.Fatalf("store.z.raw_bytes = %d, want %d", v, len(data))
	}
	if v := reg.Counter("store.z.stored_bytes").Value(); v != uint64(len(stored)) {
		t.Fatalf("store.z.stored_bytes = %d, want %d", v, len(stored))
	}

	// Incompressible payload survives via the raw-chunk fallback.
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 100<<10)
	rng.Read(noise)
	if err := z.Put("noise", noise); err != nil {
		t.Fatal(err)
	}
	got, err = z.Get("noise")
	if err != nil || !bytes.Equal(got, noise) {
		t.Fatalf("incompressible round trip diverged: %v", err)
	}

	// Empty payload.
	if err := z.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := z.Get("empty"); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %q, %v", got, err)
	}

	// An object written by a plain backend (no at-rest magic) passes
	// through Get untouched.
	plain := []byte("#!mcc-run\nnot compressed")
	_ = mem.Put("plain", plain)
	if got, _ := z.Get("plain"); !bytes.Equal(got, plain) {
		t.Fatal("plain object did not pass through")
	}
}

func TestCompressedDetectsCorruption(t *testing.T) {
	mem := cluster.NewMemStore()
	z := NewCompressed(mem, Options{})
	if err := z.Put("ck", compressible(80<<10)); err != nil {
		t.Fatal(err)
	}
	stored, _ := mem.Get("ck")
	// Flip a stored-CRC byte, an early payload byte, and a mid-stream
	// byte (the very last byte can land in flate padding bits that carry
	// no payload — the CRC guards data, not don't-care bits).
	for _, flip := range []int{len(zMagic) + 9, len(zMagic) + 14, len(stored) / 2} {
		bad := append([]byte(nil), stored...)
		bad[flip] ^= 0x40
		_ = mem.Put("ck", bad)
		if _, err := z.Get("ck"); err == nil {
			t.Fatalf("bit flip at %d decompressed without error", flip)
		}
	}
	// Truncation is detected, not silently accepted.
	_ = mem.Put("ck", stored[:len(stored)/2])
	if _, err := z.Get("ck"); err == nil {
		t.Fatal("truncated object decompressed without error")
	}
}

// ledgerShaped returns n bytes of zig-zag varints of values below
// 1 000 003 — the shape of a checkpoint image of a large integer array,
// which deflate shrinks by well under 1.2×.
func ledgerShaped(n int) []byte {
	out := make([]byte, 0, n+binary.MaxVarintLen64)
	for i := int64(0); len(out) < n; i++ {
		out = binary.AppendVarint(out, (i*40503+977)%1000003)
	}
	return out[:n]
}

// chunkFlags walks a stored object's chunk headers and returns each
// chunk's flag and stored frame (header plus payload).
func chunkFlags(stored []byte) (flags []byte, frames [][]byte) {
	rest := stored[len(zMagic):]
	for len(rest) > 0 {
		n := 13 + int(binary.BigEndian.Uint32(rest[5:9]))
		flags = append(flags, rest[0])
		frames = append(frames, rest[:n])
		rest = rest[n:]
	}
	return flags, frames
}

// TestCompressedEntropyGate: chunks whose entropy estimate says deflate
// cannot reach zMinRatio are stored raw, compressible chunks are still
// deflated, each chunk is decided on its own bytes alone, and payloads
// shorter than a chunk round-trip (TestCompressedRoundTrip covers empty).
func TestCompressedEntropyGate(t *testing.T) {
	mem := cluster.NewMemStore()
	reg := obs.NewRegistry()
	z := NewCompressed(mem, Options{Registry: reg})
	put := func(name string, data []byte) []byte {
		t.Helper()
		if err := z.Put(name, data); err != nil {
			t.Fatal(err)
		}
		got, err := z.Get(name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip diverged: %v", name, err)
		}
		stored, _ := mem.Get(name)
		return stored
	}
	wantFlags := func(name string, stored []byte, want ...byte) {
		t.Helper()
		if flags, _ := chunkFlags(stored); !bytes.Equal(flags, want) {
			t.Fatalf("%s: chunk flags %v, want %v", name, flags, want)
		}
	}

	ledger := ledgerShaped(3*zChunk + 5000)
	wantFlags("ledger", put("ledger", ledger), zRaw, zRaw, zRaw, zRaw)
	if v := reg.Counter("store.z.raw_chunks").Value(); v != 4 {
		t.Fatalf("store.z.raw_chunks = %d, want 4", v)
	}

	// TestCompressedRoundTrip holds such a payload to >= 2x smaller.
	comp := compressible(2*zChunk + 100)
	wantFlags("comp", put("comp", comp), zFlate, zFlate, zFlate)
	if v := reg.Counter("store.z.flate_chunks").Value(); v != 3 {
		t.Fatalf("store.z.flate_chunks = %d, want 3", v)
	}

	// One chunk of each kind, then the same two chunks swapped: the
	// decision and the stored frame depend only on the chunk's bytes.
	lc, cc := ledger[:zChunk], comp[:zChunk]
	mixed := put("mixed", append(append([]byte(nil), cc...), lc...))
	wantFlags("mixed", mixed, zFlate, zRaw)
	swapped := put("swapped", append(append([]byte(nil), lc...), cc...))
	_, a := chunkFlags(mixed)
	_, b := chunkFlags(swapped)
	if !bytes.Equal(a[0], b[1]) || !bytes.Equal(a[1], b[0]) {
		t.Fatal("identical chunks stored different bytes")
	}
	if again := put("mixed-again", append(append([]byte(nil), cc...), lc...)); !bytes.Equal(again, mixed) {
		t.Fatal("two puts of the same payload stored different bytes")
	}

	wantFlags("short", put("short", ledger[:1000]), zRaw)
	wantFlags("short-comp", put("short-comp", comp[:5000]), zFlate)
}

// forgedObject is a compressed-at-rest object whose one zFlate header
// claims a full raw chunk from zero stored bytes, followed by 100 KiB of
// zeros the header does not account for.
func forgedObject() []byte {
	obj := []byte(zMagic)
	var hdr [13]byte
	hdr[0] = zFlate
	binary.BigEndian.PutUint32(hdr[1:5], zChunk)
	obj = append(obj, hdr[:]...)
	return append(obj, make([]byte, 100<<10)...)
}

// getAllocs reads name through z and returns the bytes Get allocated
// beyond the backend's own copy of the stored object.
func getAllocs(z *Compressed, mem *cluster.MemStore, name string) (allocated int64, err error) {
	stored, _ := mem.Get(name)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = z.Get(name)
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) - int64(len(stored)), err
}

// TestCompressedGetForgedHeaderAllocatesLittle: a chunk header is not
// trusted to size Get's output, so a 100 KiB object claiming far more
// than it holds fails after allocating little.
func TestCompressedGetForgedHeaderAllocatesLittle(t *testing.T) {
	mem := cluster.NewMemStore()
	z := NewCompressed(mem, Options{})
	if err := mem.Put("forged", forgedObject()); err != nil {
		t.Fatal(err)
	}
	allocated, err := getAllocs(z, mem, "forged")
	t.Logf("Get allocated %d B", allocated)
	if err == nil {
		t.Fatal("forged object decoded without error")
	}
	if allocated >= 4<<20 {
		t.Fatalf("Get of a %d B forged object allocated %d B, want < 4 MiB", len(forgedObject()), allocated)
	}
}

// FuzzCompressedGet: any bytes behind the at-rest magic, read through
// Get over a MemStore, never panic and allocate at most a small multiple
// of the bytes that verify; and any payload Put through Compressed reads
// back byte-identical.
func FuzzCompressedGet(f *testing.F) {
	mem := cluster.NewMemStore()
	z := NewCompressed(mem, Options{})
	for _, seed := range [][]byte{nil, []byte("x"), compressible(zChunk + 3000), ledgerShaped(20000)} {
		_ = z.Put("seed", seed)
		stored, _ := mem.Get("seed")
		f.Add(stored[len(zMagic):])
	}
	f.Add(forgedObject()[len(zMagic):])
	f.Fuzz(func(t *testing.T, body []byte) {
		mem := cluster.NewMemStore()
		z := NewCompressed(mem, Options{})
		if err := mem.Put("ck", append([]byte(zMagic), body...)); err != nil {
			t.Fatal(err)
		}
		allocated, _ := getAllocs(z, mem, "ck")
		verified, _ := zDecode(body)
		if bound := int64(4<<20 + 4*len(verified)); allocated >= bound {
			t.Fatalf("Get allocated %d B for %d verified bytes, bound %d", allocated, len(verified), bound)
		}

		if err := z.Put("rt", body); err != nil {
			t.Fatal(err)
		}
		got, err := z.Get("rt")
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("round trip of %d bytes diverged: %v", len(body), err)
		}
	})
}

func TestReplicatedQuorumAndReadRepair(t *testing.T) {
	reg := obs.NewRegistry()
	reps := []migrate.Store{cluster.NewMemStore(), cluster.NewMemStore(), cluster.NewMemStore()}
	r, err := NewReplicated(reps, 0, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteQuorum() != 2 {
		t.Fatalf("write quorum = %d, want 2", r.WriteQuorum())
	}

	if err := r.Put("h", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	r.Wait()

	// One replica dies; the mutable name is overwritten — the write
	// still acknowledges at quorum 2.
	r.KillReplica(2)
	if err := r.Put("h", []byte("v2")); err != nil {
		t.Fatalf("Put with 1/3 dead: %v", err)
	}
	got, err := r.Get("h")
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get with 1/3 dead = %q, %v", got, err)
	}

	// The replica comes back holding the stale v1: Get must pick the
	// newer version from the surviving quorum and repair the laggard.
	r.ReviveReplica(2)
	got, err = r.Get("h")
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after revive = %q, %v (stale version won?)", got, err)
	}
	r.Wait()
	raw, err := reps[2].Get("h")
	if err != nil {
		t.Fatalf("repaired replica: %v", err)
	}
	if _, payload := openEnvelope(raw); string(payload) != "v2" {
		t.Fatalf("repaired replica holds %q, want v2", payload)
	}
	if reg.Counter("store.repl.repairs").Value() == 0 {
		t.Fatal("read repair not counted")
	}

	// Below read quorum everything refuses with ErrNoQuorum.
	r.KillReplica(0)
	r.KillReplica(1)
	if _, err := r.Get("h"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Get with 2/3 dead: %v, want ErrNoQuorum", err)
	}
	if err := r.Put("h", []byte("v3")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Put with 2/3 dead: %v, want ErrNoQuorum", err)
	}

	// A name no replica holds keeps the os.ErrNotExist identity.
	r.ReviveReplica(0)
	r.ReviveReplica(1)
	if _, err := r.Get("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing name: %v, want os.ErrNotExist", err)
	}
}

func TestReplicatedListAndDelete(t *testing.T) {
	reps := []migrate.Store{cluster.NewMemStore(), cluster.NewMemStore(), cluster.NewMemStore()}
	r, _ := NewReplicated(reps, 0, Options{})
	for i := 0; i < 4; i++ {
		if err := r.Put(fmt.Sprintf("ck%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	// List sees every acknowledged name even with one replica dead.
	r.KillReplica(1)
	names, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("List = %v, want 4 names", names)
	}
	if err := r.Delete("ck0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("ck0"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted name: %v, want os.ErrNotExist", err)
	}
}

// blockingStore parks every Put until released.
type blockingStore struct {
	inner   migrate.Store
	mu      sync.Mutex
	release chan struct{}
	order   []string
}

func newBlockingStore() *blockingStore {
	return &blockingStore{inner: cluster.NewMemStore(), release: make(chan struct{})}
}

func (b *blockingStore) Put(name string, data []byte) error {
	<-b.release
	b.mu.Lock()
	b.order = append(b.order, name)
	b.mu.Unlock()
	return b.inner.Put(name, data)
}

func (b *blockingStore) Get(name string) ([]byte, error) { return b.inner.Get(name) }
func (b *blockingStore) List() ([]string, error)         { return b.inner.List() }
func (b *blockingStore) Delete(name string) error        { return b.inner.Delete(name) }

func TestGateFIFOAndBound(t *testing.T) {
	reg := obs.NewRegistry()
	backing := newBlockingStore()
	g := NewGate(backing, 1, Options{Registry: reg})

	const waiters = 6
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		name := fmt.Sprintf("ck%d", i)
		go func() {
			defer wg.Done()
			if err := g.Put(name, []byte("x")); err != nil {
				t.Errorf("Put(%s): %v", name, err)
			}
		}()
		// Serialize arrival so FIFO order is observable: wait until this
		// goroutine is either holding the slot or parked in the queue.
		for {
			g.mu.Lock()
			queued := g.active + len(g.waiters)
			g.mu.Unlock()
			if queued > i {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if d := reg.Gauge("store.gate.depth").Value(); d != waiters-1 {
		t.Fatalf("gate depth = %d, want %d", d, waiters-1)
	}
	close(backing.release)
	wg.Wait()
	for i, name := range backing.order {
		if want := fmt.Sprintf("ck%d", i); name != want {
			t.Fatalf("admission order %v is not FIFO", backing.order)
		}
	}
	sum := reg.Histogram("store.gate.wait_ns").Summary()
	if sum.Count != waiters {
		t.Fatalf("gate wait histogram has %d samples, want %d", sum.Count, waiters)
	}
	if sum.Max == 0 {
		t.Fatal("gate wait histogram recorded no waiting despite a held slot")
	}
}

func TestRemoteStore(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", cluster.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s, err := Open("tcp:"+srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := compressible(96 << 10)
	if err := s.Put("ck@0", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ck@0")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("remote round trip failed: %v", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("remote missing name: %v, want os.ErrNotExist", err)
	}
	names, err := s.List()
	if err != nil || len(names) != 1 || names[0] != "ck@0" {
		t.Fatalf("remote List = %v, %v", names, err)
	}
	if err := s.Delete("ck@0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("ck@0"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("remote deleted name: %v, want os.ErrNotExist", err)
	}
	if err := s.Delete("ghost"); err != nil {
		t.Fatalf("remote Delete(missing) = %v, want nil", err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31 >> 7)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("1 MiB round trip: %d bytes, %v", len(got), err)
	}
}

// gcStore builds a store with:
//   - chain "n": head ref → full member n@3, stale members n@0..n@2
//     (superseded by the full at 3), in-flight member n@4
//   - orphan group "m": member m@0 with no head object yet
//   - chain "x": head object is junk (unresolvable)
//   - full-mode head "f" plus a member f@0 GC cannot attribute
func gcStore(t *testing.T) migrate.Store {
	t.Helper()
	s := cluster.NewMemStore()
	h := heap.New(heap.Config{})
	full := &wire.Image{
		Code:  wire.CodePart{Name: "p", Program: []byte("prog"), TableLen: h.TableLen()},
		State: wire.StatePart{Heap: h.Snapshot()},
	}
	enc := wire.EncodeImage(full)
	for _, kv := range [][2]string{
		{"n@0", "old root"}, {"n@1", "old delta"}, {"n@2", "old delta"},
		{"n@4", "in-flight member"},
		{"m@0", "orphan member"},
		{"x", "junk head"}, {"x@0", "member of junk head"},
		{"f@0", "unattributable member"},
	} {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, full := range []string{"n@3", "f"} {
		if err := s.Put(full, enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("n", wire.EncodeRef("n@3")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunGC(t *testing.T) {
	s := gcStore(t)
	reg := obs.NewRegistry()
	stats, err := RunGC(s, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swept != 3 {
		t.Fatalf("swept %d objects, want 3 (n@0..n@2): %+v", stats.Swept, stats)
	}
	if stats.SweptBytes == 0 {
		t.Fatal("swept bytes not accounted")
	}
	if stats.Failures != 1 { // the junk head "x"
		t.Fatalf("failures = %d, want 1 (unresolvable head x)", stats.Failures)
	}
	for _, dead := range []string{"n@0", "n@1", "n@2"} {
		if _, err := s.Get(dead); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("dead member %q survived GC", dead)
		}
	}
	for _, live := range []string{"n", "n@3", "n@4", "m@0", "x", "x@0", "f", "f@0"} {
		if _, err := s.Get(live); err != nil {
			t.Fatalf("live object %q swept: %v", live, err)
		}
	}
	// The contract that matters: every head still resolves after GC.
	chain, err := migrate.ResolveChain(s, "n")
	if err != nil {
		t.Fatalf("head no longer resolves post-GC: %v", err)
	}
	if len(chain) != 1 || chain[0] != "n@3" {
		t.Fatalf("post-GC chain = %v, want [n@3]", chain)
	}
	if v := reg.Counter("store.gc.swept").Value(); v != 3 {
		t.Fatalf("store.gc.swept = %d, want 3", v)
	}
	// A second sweep is a no-op: the live set is stable.
	stats, err = RunGC(s, Options{Registry: reg})
	if err != nil || stats.Swept != 0 {
		t.Fatalf("second sweep removed %d objects (%v), want 0", stats.Swept, err)
	}
}

// TestRunGCKeepsCodeObjects: a sweep never deletes a code object, named
// by a head or not yet named by any: there is one per program, and the
// committer writes it before the first image that names it, so a sweep
// in between must leave it.
func TestRunGCKeepsCodeObjects(t *testing.T) {
	s := gcStore(t)
	codes := []string{
		migrate.CodeName(sha256.Sum256([]byte("named program"))),
		migrate.CodeName(sha256.Sum256([]byte("program no image names yet"))),
	}
	for _, name := range codes {
		if err := s.Put(name, []byte("program bytes")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := RunGC(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swept != 3 {
		t.Fatalf("swept %d objects, want only the 3 dead members: %+v", stats.Swept, stats)
	}
	for _, name := range codes {
		if _, err := s.Get(name); err != nil {
			t.Fatalf("code object %q swept: %v", name, err)
		}
	}
}

func TestStartGC(t *testing.T) {
	s := gcStore(t)
	g := StartGC(s, 5*time.Millisecond, Options{})
	defer g.Stop()
	deadline := time.After(2 * time.Second)
	for {
		if _, err := s.Get("n@0"); errors.Is(err, os.ErrNotExist) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background GC never swept the dead member")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if _, err := migrate.ResolveChain(s, "n"); err != nil {
		t.Fatalf("head no longer resolves under background GC: %v", err)
	}
}

// FuzzStoreRequest feeds arbitrary bytes to the request handler over a
// MemStore: it never panics, always answers with a response the client's
// decoder accepts, and a request that decodes re-encodes to the same
// bytes.
func FuzzStoreRequest(f *testing.F) {
	for _, seed := range []struct {
		op            byte
		name, payload string
	}{
		{opPut, "ck@0", "image"},
		{opGet, "ck", ""},
		{opGet, "ghost", ""},
		{opList, "", ""},
		{opDelete, "ck", ""},
		{'Z', "ck", ""},
	} {
		req, err := encodeRequest(seed.op, seed.name, []byte(seed.payload))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(req)
	}
	f.Add([]byte{})
	f.Add([]byte{opGet, 0xff, 0xff, 'c'})
	f.Fuzz(func(t *testing.T, req []byte) {
		s := cluster.NewMemStore()
		if err := s.Put("ck", []byte("image")); err != nil {
			t.Fatal(err)
		}
		resp := serveRequest(s, req)
		if len(resp) == 0 {
			t.Fatal("empty response")
		}
		if _, err := decodeResponse(resp); err != nil && resp[0] != statusNotExist && resp[0] != statusError {
			t.Fatalf("response %q does not decode: %v", resp, err)
		}
		op, name, payload, err := decodeRequest(req)
		if err != nil {
			return
		}
		again, err := encodeRequest(op, name, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, req) {
			t.Fatalf("re-encoded %q as %q", req, again)
		}
	})
}
