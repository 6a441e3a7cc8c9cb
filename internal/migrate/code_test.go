package migrate

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fir"
	"repro/internal/wire"
)

// fresh returns a salt no earlier call in this process returned: the
// code tables are per process, and a test that needs a program they do
// not know must not meet its own earlier run's (go test -count N).
func fresh(salt string) string {
	return fmt.Sprintf("%s-%d", salt, freshSalts.Add(1))
}

var freshSalts atomic.Int64

// byReference returns a copy of img whose code part names its inline
// program by hash, as PackByReference would have packed it.
func byReference(img *wire.Image) *wire.Image {
	out := *img
	out.Code.Program, out.Code.Hash = nil, sha256.Sum256(img.Code.Program)
	return &out
}

// byRefCheckpoint stores saltedCheckpoint(salt)'s state under name, with
// its code part naming program by hash, and returns the hash. The store
// holds no code object yet. Unless program is the checkpoint's own
// (which packing it registered), the in-process code table does not
// know the hash either, so FetchImage has to read the store.
func byRefCheckpoint(t *testing.T, store Store, salt, name string, program []byte) [sha256.Size]byte {
	t.Helper()
	img, err := wire.DecodeImage(saltedCheckpoint(t, salt))
	if err != nil {
		t.Fatal(err)
	}
	img.Code.Program = program
	if err := store.Put(name, wire.EncodeImage(byReference(img))); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(program)
}

// TestFetchImageResolvesCodeObject: an image written by reference comes
// back from FetchImage with its program filled in from the code object,
// inline, and Unpack runs it.
func TestFetchImageResolvesCodeObject(t *testing.T) {
	store := newMemStore()
	program := fir.EncodeProgram(saltedProgram("resolve"))
	hash := byRefCheckpoint(t, store, "resolve", "ck", program)
	if err := store.Put(CodeName(hash), program); err != nil {
		t.Fatal(err)
	}
	img, err := FetchImage(store, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Code.Program, program) || img.Code.Hash != hash {
		t.Fatal("FetchImage did not fill in the program the image names, inline, under the hash it names it by")
	}
	// Unpack keys the program by that hash without hashing it again: the
	// bytes are the very slice the code table checked.
	if data, ok := codes.Peek(hash); !ok || &data[0] != &img.Code.Program[0] || programKey(&img.Code) != hash {
		t.Fatal("a resolved program is not the checked slice the code table holds under its hash")
	}
	p, _, err := Unpack(img, untrusted("resolve"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runToHalt(t, p); got != 55 {
		t.Fatalf("resumed halt code %d, want 55", got)
	}
}

// TestFetchImageMissingCodeObject: a checkpoint whose code object is
// gone is refused with ErrBadCode — not a panic, and not an
// os.ErrNotExist that a caller would read as "no checkpoint yet".
func TestFetchImageMissingCodeObject(t *testing.T) {
	store := newMemStore()
	hash := byRefCheckpoint(t, store, "missing", "ck", fir.EncodeProgram(saltedProgram(fresh("missing-code"))))
	_, err := FetchImage(store, "ck")
	if !errors.Is(err, ErrBadCode) || !strings.Contains(err.Error(), CodeName(hash)) {
		t.Fatalf("missing code object: err = %v, want ErrBadCode naming %s", err, CodeName(hash))
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatal("a missing code object reads as a missing checkpoint")
	}
	if _, err := LoadCheckpoint(store, "ck", untrusted("missing")); !errors.Is(err, ErrBadCode) {
		t.Fatalf("LoadCheckpoint: err = %v, want ErrBadCode", err)
	}
}

// TestFetchImageCodeObjectHashMismatch: a code object whose bytes do not
// hash to the reference is refused, even when they are a well-formed
// program, and the refusal is not kept: once the right bytes are in
// place the checkpoint resolves.
func TestFetchImageCodeObjectHashMismatch(t *testing.T) {
	store := newMemStore()
	program := fir.EncodeProgram(saltedProgram(fresh("mismatch-code")))
	hash := byRefCheckpoint(t, store, "mismatch", "ck", program)
	other := fir.EncodeProgram(saltedProgram("mismatch-other"))
	if err := store.Put(CodeName(hash), other); err != nil {
		t.Fatal(err)
	}
	if _, err := FetchImage(store, "ck"); !errors.Is(err, ErrBadCode) {
		t.Fatalf("code object with the wrong bytes: err = %v, want ErrBadCode", err)
	}
	if err := store.Put(CodeName(hash), program); err != nil {
		t.Fatal(err)
	}
	img, err := FetchImage(store, "ck")
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if !bytes.Equal(img.Code.Program, program) {
		t.Fatal("after repair: wrong program")
	}
}

// TestInlineImageCannotClaimInternedHash: an inline image that claims
// the hash of a program this process has interned, checked and compiled
// gets its own program hashed and run, never the interned one.
func TestInlineImageCannotClaimInternedHash(t *testing.T) {
	salt := fresh("claim")
	honest, err := wire.DecodeImage(saltedCheckpoint(t, salt))
	if err != nil {
		t.Fatal(err)
	}
	victim, _, err := Unpack(honest, untrusted(salt))
	if err != nil {
		t.Fatal(err)
	}

	impostor := saltedProgram(salt)
	impostor.AddFunc(fir.Fn("impostor", fir.Ps("a", fir.TyInt), fir.NewBuilder().Halt(fir.I(7))))
	img, err := wire.DecodeImage(saltedCheckpoint(t, salt))
	if err != nil {
		t.Fatal(err)
	}
	img.Code.Program = fir.EncodeProgram(impostor)
	img.Code.Hash = sha256.Sum256(honest.Code.Program)
	// Through the wire too: the claim survives encoding, the bytes are a
	// fresh decode.
	img, err = wire.DecodeImage(wire.EncodeImage(img))
	if err != nil {
		t.Fatal(err)
	}
	p, tm, err := Unpack(img, untrusted(salt))
	if err != nil {
		t.Fatal(err)
	}
	if tm.Cached || p.Program() == victim.Program() {
		t.Fatal("an inline image's hash claim was served the interned program")
	}
	if _, idx := p.Program().Lookup("impostor"); idx < 0 {
		t.Fatal("unpacked program is not the one in the image")
	}
}

// TestBadCodeObjectIsNotTrustedByName: a code object whose bytes do not
// hash to its name fails with ErrBadCode, even when they are a program
// this process has interned and compiled: a resolved image's hash is only
// trusted for bytes that were checked against it.
func TestBadCodeObjectIsNotTrustedByName(t *testing.T) {
	salt := fresh("badname")
	known, err := wire.DecodeImage(saltedCheckpoint(t, salt))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Unpack(known, untrusted(salt)); err != nil {
		t.Fatal(err)
	}
	store := newMemStore()
	hash := byRefCheckpoint(t, store, salt, "ck", fir.EncodeProgram(saltedProgram(fresh("badname-named"))))
	if err := store.Put(CodeName(hash), known.Code.Program); err != nil {
		t.Fatal(err)
	}
	if _, err := FetchImage(store, "ck"); !errors.Is(err, ErrBadCode) {
		t.Fatalf("code object with another program's bytes: err = %v, want ErrBadCode", err)
	}
	if _, err := LoadCheckpoint(store, "ck", untrusted(salt)); !errors.Is(err, ErrBadCode) {
		t.Fatalf("LoadCheckpoint: err = %v, want ErrBadCode", err)
	}
	// Nor is an inline program keyed by a hash it claims, even one whose
	// checked bytes this process holds.
	_, held := ProgramCode(saltedProgram(fresh("badname-held")))
	claim := known.Code
	claim.Hash = held
	if programKey(&claim) != sha256.Sum256(known.Code.Program) {
		t.Fatal("an inline program was keyed by the hash it claims")
	}
}

// TestUnpackRefusesUnresolvedReference: Unpack given an image that still
// names its program by reference says so instead of decoding nothing.
func TestUnpackRefusesUnresolvedReference(t *testing.T) {
	img, err := wire.DecodeImage(saltedCheckpoint(t, "unresolved"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Unpack(byReference(img), untrusted("unresolved")); err == nil {
		t.Fatal("Unpack ran an image with no program")
	}
}

// TestCodeNameIsNotAChainMember: a code object's name never parses as
// "<head>@<seq>", whatever the hash, and IsCodeName knows it.
func TestCodeNameIsNotAChainMember(t *testing.T) {
	for _, h := range [][sha256.Size]byte{{}, sha256.Sum256([]byte("x"))} {
		name := CodeName(h)
		if !IsCodeName(name) {
			t.Fatalf("IsCodeName(%q) = false", name)
		}
		at := bytes.LastIndexByte([]byte(name), '@')
		if rest := name[at+1:]; rest[0] >= '0' && rest[0] <= '9' {
			t.Fatalf("%q: the part after '@' starts with a digit", name)
		}
	}
	if IsCodeName("ck@3") || IsCodeName("grid-ck-0") {
		t.Fatal("IsCodeName accepts a checkpoint name")
	}
}

// gatedStore holds every Get of a code object until release is closed,
// then reports it missing; it announces each such Get on arrived.
type gatedStore struct {
	*memStore
	arrived chan struct{}
	release chan struct{}
}

func (s *gatedStore) Get(name string) ([]byte, error) {
	if IsCodeName(name) {
		s.arrived <- struct{}{}
		<-s.release
		return nil, fmt.Errorf("gatedStore: %q: %w", name, os.ErrNotExist)
	}
	return s.memStore.Get(name)
}

// TestProgramCodeSurvivesFailedFetch: a FetchImage whose code-object read
// fails while this process is encoding the same program shares its
// error with the encoder's table fill (one fill per hash); the encoder
// must keep its own bytes rather than record an empty program.
func TestProgramCodeSurvivesFailedFetch(t *testing.T) {
	prog := saltedProgram(fresh("fetchrace-code"))
	st := &gatedStore{memStore: newMemStore(), arrived: make(chan struct{}, 1), release: make(chan struct{})}
	hash := byRefCheckpoint(t, st, "fetchrace", "ck", fir.EncodeProgram(prog))

	fetched := make(chan error, 1)
	go func() { _, err := FetchImage(st, "ck"); fetched <- err }()
	<-st.arrived // the fetch now fills codes[hash]
	encoded := make(chan []byte, 1)
	go func() { data, _ := ProgramCode(prog); encoded <- data }()
	time.Sleep(20 * time.Millisecond) // let the encoder join the fill
	close(st.release)

	if err := <-fetched; !errors.Is(err, ErrBadCode) {
		t.Fatalf("fetch of a missing code object: err = %v, want ErrBadCode", err)
	}
	data := <-encoded
	if len(data) == 0 || sha256.Sum256(data) != hash {
		t.Fatalf("ProgramCode returned %d bytes after a failed fetch of the same hash", len(data))
	}
	if again, _ := ProgramCode(prog); len(again) == 0 {
		t.Fatal("ProgramCode cached an empty encoding")
	}
}
