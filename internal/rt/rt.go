// Package rt is the MCC runtime, written once: the process shell (heap,
// speculation stack, extern table, lifecycle, fuel and step accounting,
// the speculate/commit/rollback/migrate control transfers) that every
// execution engine embeds, and the surface externals and migration
// handlers program against. An engine — the FIR interpreter (internal/vm)
// or the threaded-code engine (internal/jit) — supplies only a Core, so a
// program behaves identically on either and a process can migrate between
// heterogeneous nodes (§3, §4.2).
package rt

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/spec"
)

// Status describes a process's lifecycle state on any backend.
type Status int

const (
	// StatusReady means the process has been created but not started.
	StatusReady Status = iota
	// StatusRunning means the process can make progress.
	StatusRunning
	// StatusHalted means the process executed halt; see HaltCode.
	StatusHalted
	// StatusMigrated means the process shipped itself to another machine
	// and terminated locally (the migrate protocol, §4.2.1).
	StatusMigrated
	// StatusSuspended means the process wrote itself to a file and
	// terminated (the suspend protocol).
	StatusSuspended
	// StatusFailed means a runtime error stopped the process.
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusMigrated:
		return "migrated"
	case StatusSuspended:
		return "suspended"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// MigrateOutcome is a migration handler's disposition for the process.
type MigrateOutcome int

const (
	// OutcomeContinueLocal resumes the continuation on this machine
	// (failed migrate, or the checkpoint protocol).
	OutcomeContinueLocal MigrateOutcome = iota
	// OutcomeMigrated terminates the local process: it now runs elsewhere.
	OutcomeMigrated
	// OutcomeSuspended terminates the local process: its image is on disk.
	OutcomeSuspended
)

// Runtime is the backend-independent view of a running MCC process that
// externals and the migration subsystem program against.
type Runtime interface {
	// Name identifies the process.
	Name() string
	// Program returns the FIR program being executed.
	Program() *fir.Program
	// Heap returns the process heap.
	Heap() *heap.Heap
	// Spec returns the speculation manager.
	Spec() *spec.Manager
	// Stdout is the sink for the print externs.
	Stdout() io.Writer
	// Pin registers a temporary GC root; the backend clears pins after
	// each external returns.
	Pin(v heap.Value)
	// Arg returns the i-th process argument (0 when out of range).
	Arg(i int64) int64
	// NArgs returns the process argument count.
	NArgs() int64
	// Rand returns a deterministic pseudo-random integer in [0, n).
	Rand(n int64) int64
}

// MigrationRequest carries everything a migration handler needs at a
// migrate pseudo-instruction.
type MigrationRequest struct {
	Rt      Runtime
	Label   int
	Target  string // full target string, e.g. "migrate://host:port"
	FnIndex int64
	Args    []heap.Value
}

// MigrateHandler implements the pack/transmit half of process migration.
type MigrateHandler func(req *MigrationRequest) (MigrateOutcome, error)

// ExternFn is a runtime-provided external function. The args slice is a
// scratch buffer owned by the backend and only valid for the duration of
// the call: implementations must copy any values they retain.
type ExternFn func(r Runtime, args []heap.Value) (heap.Value, error)

// Extern pairs an external's type signature with its implementation.
type Extern struct {
	Sig fir.ExternSig
	Fn  ExternFn
}

// Registry is a named set of externals.
type Registry map[string]Extern

// Sigs projects the registry onto the signature map the type checker
// consumes.
func (r Registry) Sigs() map[string]fir.ExternSig {
	out := make(map[string]fir.ExternSig, len(r))
	for n, e := range r {
		out[n] = e.Sig
	}
	return out
}

// SigFingerprint canonicalizes extern signature sets so that a type-check
// verdict can be keyed by (program, signatures): two registries with the
// same names and signatures print the same, whatever their functions.
// The zero value is ready; it reuses its buffers from call to call and is
// not safe for concurrent use.
type SigFingerprint struct {
	names []string
	buf   []byte
}

// Of prints the signature set of std overlaid with extra. The result is
// valid until the next call.
func (f *SigFingerprint) Of(std, extra Registry) []byte {
	f.names = f.names[:0]
	for n := range std {
		if _, shadowed := extra[n]; !shadowed {
			f.names = append(f.names, n)
		}
	}
	for n := range extra {
		f.names = append(f.names, n)
	}
	sort.Strings(f.names)
	b := f.buf[:0]
	for _, n := range f.names {
		e, ok := extra[n]
		if !ok {
			e = std[n]
		}
		s := e.Sig
		b = append(b, n...)
		b = append(b, '(')
		for i, a := range s.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, a.String()...)
		}
		b = append(b, ")->"...)
		b = append(b, s.Result.String()...)
		b = append(b, ';')
	}
	f.buf = b
	return b
}

// Proc is a resumable process on any engine; Shell implements it. The
// cluster, the migration server and the workload harness drive processes
// through this interface, so a node's engine choice is invisible to the
// rest of the system. Engines are constructed through internal/engine's
// registry. Start positions a fresh process at its entry function
// (type-checking first); StartAt is the unpack resume path, invoking the
// function at table index fnIdx with argument values read from the image;
// Yield asks for the current bounded RunSteps quantum to end after the
// active step. A Start or StartAt that fails leaves the process
// StatusFailed with Err set.
type Proc interface {
	Runtime
	RegisterExtern(name string, sig fir.ExternSig, fn ExternFn)
	SetMigrateHandler(h MigrateHandler)
	Start() error
	StartAt(fnIdx int64, args []heap.Value) error
	Run() (Status, error)
	RunSteps(n uint64) (Status, error)
	Yield()
	Status() Status
	HaltCode() int64
	Err() error
	Steps() uint64
}

var _ Proc = (*Shell)(nil)
