// Package migrate implements whole-process migration (§4.2): the pack,
// transmit and unpack operations, the three migration protocols (migrate,
// suspend, checkpoint), the migration server that receives, verifies,
// recompiles and resumes inbound processes, and checkpoint storage.
//
// The paper formats checkpoints as executable files. Here a checkpoint
// the cluster's pipeline (internal/ckpt) writes is a head image plus the
// code object it names: the image carries the process state and the
// SHA-256 of its program's encoding, and the program itself is stored
// once per store, under CodeName of that hash, the way Venti stores an
// immutable block once under its hash. FetchImage and LoadCheckpoint
// resolve both, so a checkpoint is still everything a resurrection needs
// to execute. Images that travel to another machine (migrate://, a
// node:// hand-off, suspend://) keep their program inline: the target
// may hold no store, or no reason to trust one.
package migrate

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/memo"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Proto identifies a migration protocol parsed from a target string.
type Proto int

const (
	// ProtoMigrate ships the process to a migration server for immediate
	// execution; the server verifies and recompiles the FIR (untrusted).
	ProtoMigrate Proto = iota
	// ProtoMigrateBinary ships the process without verification — the
	// paper's trusted "binary migration" (§5), which skips the type check
	// and recompilation at the destination.
	ProtoMigrateBinary
	// ProtoSuspend writes the process image to storage and terminates it.
	ProtoSuspend
	// ProtoCheckpoint writes the process image to storage and continues.
	ProtoCheckpoint
)

func (p Proto) String() string {
	switch p {
	case ProtoMigrate:
		return "migrate"
	case ProtoMigrateBinary:
		return "migrate-bin"
	case ProtoSuspend:
		return "suspend"
	case ProtoCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// ErrBadTarget reports an unparsable migration target string.
var ErrBadTarget = errors.New("migrate: bad target string")

// ParseTarget splits a migration target string into protocol and address.
// The string format follows §4.2.1: "the string includes information on
// what protocol to use to transfer state to the target". Examples:
// "migrate://host:port", "migrate-bin://host:port", "checkpoint://name",
// "suspend://name".
func ParseTarget(s string) (Proto, string, error) {
	i := strings.Index(s, "://")
	if i < 0 {
		return 0, "", fmt.Errorf("%w: %q (no scheme)", ErrBadTarget, s)
	}
	scheme, addr := s[:i], s[i+3:]
	if addr == "" {
		return 0, "", fmt.Errorf("%w: %q (empty address)", ErrBadTarget, s)
	}
	switch scheme {
	case "migrate":
		return ProtoMigrate, addr, nil
	case "migrate-bin":
		return ProtoMigrateBinary, addr, nil
	case "suspend":
		return ProtoSuspend, addr, nil
	case "checkpoint":
		return ProtoCheckpoint, addr, nil
	default:
		return 0, "", fmt.Errorf("%w: %q (unknown scheme %q)", ErrBadTarget, s, scheme)
	}
}

// Store is the reliable persistent storage checkpoints are written to:
// the one store seam every layer (checkpoint pipeline, store tier, hub,
// daemon) speaks. The paper uses an NFS mount visible across the
// cluster; internal/cluster provides in-memory and directory-backed
// implementations, internal/store the production tier.
//
// Put must not retain data after it returns: the checkpoint hot path
// reuses its encode buffer across intervals, so an implementation that
// needs the bytes later has to copy them (as MemStore does) or write
// them out before returning.
//
// A missing name is an ordinary answer, not a failure: Get reports it
// with an error matching os.ErrNotExist ("no checkpoint yet"), and
// Delete of a missing name returns nil (pruning is idempotent).
type Store interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	List() ([]string, error)
	Delete(name string) error
}

// The program-bytes tables. A checkpointing process re-packs the same
// (immutable) program every interval, and re-encoding it dominated the
// capture pause; a restore reads back a program this process usually
// encoded itself.
var (
	// encodeCache memoizes each program's encoding and its SHA-256 per
	// program identity. The bytes are shared by every image built from
	// the program — consumers treat Code.Program as read-only.
	encodeCache = memo.New[*fir.Program, programCode](16)
	// codes maps a SHA-256 to program bytes that hash to it: encodings
	// this process made, and code objects FetchImage read and checked.
	codes = memo.New[[sha256.Size]byte, []byte](16)
)

type programCode struct {
	data []byte
	hash [sha256.Size]byte
}

// ProgramCode returns the canonical encoding of p (fir.EncodeProgram) and
// its SHA-256, computed once per program. The bytes are shared and
// read-only. They are what the checkpoint pipeline stores, once, as p's
// code object under CodeName(hash).
func ProgramCode(p *fir.Program) (data []byte, hash [sha256.Size]byte) {
	c, _, _ := encodeCache.Do(p, func() (programCode, error) {
		data := fir.EncodeProgram(p)
		hash := sha256.Sum256(data)
		// Seed codes, so reading back a checkpoint of p needs no store
		// read. A fetch of the same hash failing at this moment shares
		// its error with this fill (memo.Table.Do); the encoding stands
		// on its own then.
		codes.Do(hash, func() ([]byte, error) { return data, nil })
		return programCode{data, hash}, nil
	})
	return c.data, c.hash
}

// programKey returns the SHA-256 of c's inline program. Bytes that
// FetchImage checked against c.Hash, or that ProgramCode hashed, are the
// very slice codes holds under it, and are not hashed again; any other
// inline code — a node:// hand-off, a migrate.Server upload — is of
// unknown origin, and a hash it claims is ignored.
func programKey(c *wire.CodePart) [sha256.Size]byte {
	if data, ok := codes.Peek(c.Hash); ok && len(data) == len(c.Program) &&
		(len(data) == 0 || &data[0] == &c.Program[0]) {
		return c.Hash
	}
	return sha256.Sum256(c.Program)
}

// codePrefix opens every code object's store name. The "sha256-" keeps
// the part after the '@' from parsing as a number, so nothing that reads
// "<head>@<seq>" as a checkpoint-chain member (the committer's sequence
// probe, the store tier's retention GC) mistakes a code object for one.
const codePrefix = "code@sha256-"

// CodeName returns the store name of the code object holding the
// program whose encoding hashes to hash. The object is immutable: equal
// names hold equal bytes, so writing it twice is harmless and it is
// never superseded.
func CodeName(hash [sha256.Size]byte) string {
	return codePrefix + hex.EncodeToString(hash[:])
}

// IsCodeName reports whether name is a code object's store name.
func IsCodeName(name string) bool { return strings.HasPrefix(name, codePrefix) }

// Pack captures the complete state of a running process as a migration
// image (§4.2.2). It stores the continuation function and live variables
// into a freshly allocated migrate_env block (so that no state lives
// outside the heap), runs a full garbage collection, and snapshots the
// heap, pointer table and speculation continuations. The image is a deep
// copy: it stays valid while the process runs on. Its code part carries
// the program inline.
func Pack(r rt.Runtime, label int, fnIdx int64, args []heap.Value) (*wire.Image, error) {
	return pack(r, label, fnIdx, args, false)
}

// PackByReference is Pack with the image's code part naming the program
// by hash (wire.CodePart.ByReference) — the form the checkpoint pipeline
// stores beside the program's code object (ProgramCode).
func PackByReference(r rt.Runtime, label int, fnIdx int64, args []heap.Value) (*wire.Image, error) {
	return pack(r, label, fnIdx, args, true)
}

func pack(r rt.Runtime, label int, fnIdx int64, args []heap.Value, byRef bool) (*wire.Image, error) {
	code, err := prepare(r, label, fnIdx, args, byRef)
	if err != nil {
		return nil, err
	}
	snap := r.Heap().Snapshot()
	code.TableLen, code.HeapWords = snap.TableLen, snap.EntryWords()
	return &wire.Image{Code: code, State: wire.StatePart{Heap: snap, Conts: r.Spec().Snapshot()}}, nil
}

// AppendPack appends to buf the checkpoint-file encoding of the image
// PackByReference would capture — byte for byte
// wire.AppendImage(buf, PackByReference(...)) — but encodes it straight
// from the heap arena through view (scratch the caller recycles;
// heap.View), with no copy of the heap in between. The process must not
// run until it returns. This is the synchronous checkpoint path: the
// bytes are written out before the process resumes, and the program's
// code object (ProgramCode) must already be in the store they go to.
func AppendPack(buf []byte, view *heap.Snapshot, r rt.Runtime, label int, fnIdx int64, args []heap.Value) ([]byte, error) {
	code, err := prepare(r, label, fnIdx, args, true)
	if err != nil {
		return buf, err
	}
	r.Heap().View(view)
	code.TableLen, code.HeapWords = view.TableLen, view.EntryWords()
	img := wire.Image{Code: code, State: wire.StatePart{Heap: view, Conts: r.Spec().Snapshot()}}
	return wire.AppendImage(buf, &img), nil
}

// prepare is the first half of pack: it stores the resume continuation
// and live variables into a fresh, pinned migrate_env block, runs the
// full collection, and returns the code part without the heap sizes
// (the caller reads them off its snapshot or view). The code part
// carries the program inline, or only its hash when byRef is set.
func prepare(r rt.Runtime, label int, fnIdx int64, args []heap.Value, byRef bool) (wire.CodePart, error) {
	h := r.Heap()
	env, err := h.Alloc(int64(len(args)) + 1)
	if err != nil {
		return wire.CodePart{}, fmt.Errorf("migrate: allocating migrate_env: %w", err)
	}
	r.Pin(env)
	if err := h.Store(env, 0, heap.FunVal(fnIdx)); err != nil {
		return wire.CodePart{}, err
	}
	for i, a := range args {
		if err := h.Store(env, int64(i)+1, a); err != nil {
			return wire.CodePart{}, err
		}
	}
	// "The pack operation first performs garbage collection on the heap."
	h.CollectMajor()
	procArgs := make([]int64, r.NArgs())
	for i := range procArgs {
		procArgs[i] = r.Arg(int64(i))
	}
	code := wire.CodePart{Name: r.Name(), Label: label, EnvIndex: env.I, Args: procArgs}
	if byRef {
		_, code.Hash = ProgramCode(r.Program())
	} else {
		code.Program, _ = ProgramCode(r.Program())
	}
	return code, nil
}

// Options configures Unpack.
type Options struct {
	// Engine names the execution engine (internal/engine registry) the
	// process resumes on, whatever engine packed it. Empty selects the
	// default.
	Engine string
	// Trusted skips type checking and label validation — the binary
	// protocol. Only enable for peers inside the trust boundary.
	Trusted bool
	// Externs are additional externals (beyond the standard set) the
	// resumed process may call; they participate in type checking.
	Externs rt.Registry
	// Config carries process options (stdout, fuel, …). An empty Name and
	// nil Args default to the image's.
	Config rt.Config
}

// Timings reports where unpack time went, reproducing the paper's
// breakdown of migration cost (compilation dominates untrusted migration).
//
// Cached tells the two kinds of unpack apart. On first contact with a
// program (Cached false) Decode, Check and Compile are the full costs the
// paper measures. When this process has already unpacked the same program
// bytes (Cached true) Decode is the SHA-256 of those bytes, and Check and
// Compile are table lookups — unless the extern signature set or the
// engine is new to the program, which is checked or compiled once more.
// Restore is paid in full either way.
type Timings struct {
	Decode  time.Duration // FIR decode, or the content hash on a hit
	Check   time.Duration // type check + label validation (untrusted only)
	Compile time.Duration // the engine's code generation
	Restore time.Duration // heap reconstruction + resume positioning
	Cached  bool          // the program was already interned
}

// Total returns the summed unpack time.
func (t Timings) Total() time.Duration { return t.Decode + t.Check + t.Compile + t.Restore }

// The restore path's tables. A checkpoint the same run reads back, or a
// second process arriving with code the server has already accepted,
// carries a program this process holds in executable form; these make
// "bytes -> checked, compiled program" happen once.
var (
	// interned holds the decoded form of inbound programs under the
	// SHA-256 of their encoding, so equal bytes yield one *fir.Program and
	// the pointer-keyed tables (verdicts, the engine artifact caches,
	// encodeCache) recognise it. The key is a cryptographic hash, never
	// the encoding's CRC: a collision would run one program under
	// another's verdict. Entries pin a program each, so the bound is small.
	interned = memo.New[[sha256.Size]byte, *fir.Program](16)
	// verdicts holds the migration labels of programs that passed
	// fir.Check, per extern signature set. A rejection is not kept: an
	// ill-typed program is checked, and refused, every time it arrives.
	verdicts = memo.New[verdictKey, map[int]string](32)
)

type verdictKey struct {
	prog *fir.Program
	sigs string // rt.SigFingerprint of the externs checked against
}

// checkedLabels is the untrusted-peer gate (§4.2.2): prog must type-check
// against the standard externs overlaid with extra, and its migration
// labels must be unique. It returns the labels, shared and read-only.
func checkedLabels(prog *fir.Program, extra rt.Registry) (map[int]string, error) {
	std := rt.StdExterns()
	var fp rt.SigFingerprint
	key := verdictKey{prog: prog, sigs: string(fp.Of(std, extra))}
	labels, _, err := verdicts.Do(key, func() (map[int]string, error) {
		sigs := std.Sigs()
		for n, e := range extra {
			sigs[n] = e.Sig
		}
		if err := fir.Check(prog, sigs); err != nil {
			return nil, fmt.Errorf("migrate: inbound program rejected: %w", err)
		}
		return fir.MigrateLabels(prog)
	})
	return labels, err
}

// Unpack reconstructs a process from an image: decode the FIR, verify it
// (unless trusted), recompile for the local engine, rebuild the heap from
// the snapshot, restore the speculation continuations, and position the
// process at the resume continuation read out of migrate_env with full
// safety checks (§4.2.2). The engine is chosen by Options.Engine (any
// name registered with internal/engine).
//
// Decode, verify and recompile depend only on the program bytes (plus the
// extern signatures and the engine), so each is done once per process and
// found again afterwards: see Timings.Cached. A decode that fails is never
// kept. Everything that depends on the image — the resume label being one
// of the program's migration points, the shape of migrate_env, every
// heap.Restore check — runs on every call. Processes unpacked from equal
// bytes share one *fir.Program, which nothing may mutate.
func Unpack(img *wire.Image, opts Options) (proc rt.Proc, tm Timings, err error) {
	eng, err := engine.Get(opts.Engine)
	if err != nil {
		return nil, tm, err
	}

	t0 := time.Now()
	if img.Code.ByReference() {
		return nil, tm, fmt.Errorf("migrate: image names program %x by reference; FetchImage resolves it", img.Code.Hash[:8])
	}
	prog, cached, err := interned.Do(programKey(&img.Code), func() (*fir.Program, error) {
		return fir.DecodeProgram(img.Code.Program)
	})
	if err != nil {
		return nil, tm, err
	}
	tm.Decode = time.Since(t0)
	tm.Cached = cached

	cfg := opts.Config
	if cfg.Name == "" {
		cfg.Name = img.Code.Name
	}
	if cfg.Args == nil {
		cfg.Args = img.Code.Args
	}

	if !opts.Trusted {
		t0 = time.Now()
		labels, err := checkedLabels(prog, opts.Externs)
		if err != nil {
			return nil, tm, err
		}
		if _, ok := labels[img.Code.Label]; !ok {
			return nil, tm, fmt.Errorf("migrate: resume label %d does not correspond to a migration point", img.Code.Label)
		}
		tm.Check = time.Since(t0)
	}

	// Code generation runs up front, into the engine's artifact cache
	// where Resume finds it, so the paper's cost breakdown (compilation
	// dominating untrusted migration, experiment E1) stays separately
	// attributable.
	t0 = time.Now()
	if _, err := eng.Precompile(prog); err != nil {
		return nil, tm, err
	}
	tm.Compile = time.Since(t0)

	t0 = time.Now()
	h, err := heap.Restore(img.State.Heap, cfg.Heap)
	if err != nil {
		return nil, tm, err
	}
	defer func() {
		if err != nil {
			// No process will run on the restored heap: its arena goes back.
			h.Release()
		}
	}()

	// Read the resume state out of migrate_env, applying the standard
	// safety checks as the values are read.
	env := heap.PtrVal(img.Code.EnvIndex, 0)
	size, err := h.BlockSize(env)
	if err != nil {
		return nil, tm, fmt.Errorf("migrate: migrate_env: %w", err)
	}
	if size < 1 {
		return nil, tm, fmt.Errorf("migrate: migrate_env block is empty")
	}
	fnv, err := h.Load(env, 0)
	if err != nil {
		return nil, tm, err
	}
	if fnv.Kind != heap.KFun {
		return nil, tm, fmt.Errorf("migrate: migrate_env word 0 is %s, want fun", fnv)
	}
	args := make([]heap.Value, 0, size-1)
	for i := int64(1); i < size; i++ {
		v, err := h.Load(env, i)
		if err != nil {
			return nil, tm, err
		}
		args = append(args, v)
	}

	proc, err = eng.Resume(prog, h, img.State.Conts, cfg)
	if err != nil {
		return nil, tm, err
	}
	for n, e := range opts.Externs {
		proc.RegisterExtern(n, e.Sig, e.Fn)
	}
	if err := proc.StartAt(fnv.I, args); err != nil {
		return nil, tm, err
	}
	tm.Restore = time.Since(t0)
	return proc, tm, nil
}

// LoadCheckpoint reads a checkpoint from storage and resumes it — what a
// resurrection daemon does when a node fails (§2). Full checkpoint files
// carry the executable header, honouring the paper's "checkpoints are
// formatted as executable files"; head refs, delta chains and the code
// object an image names are resolved transparently (FetchImage).
func LoadCheckpoint(store Store, name string, opts Options) (rt.Proc, error) {
	img, err := FetchImage(store, name)
	if err != nil {
		return nil, err
	}
	proc, _, err := Unpack(img, opts)
	return proc, err
}
