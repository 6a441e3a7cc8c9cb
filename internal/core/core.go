// Package core is the public API of the Mojave reproduction: the paper's
// language primitives — whole-process migration and speculative execution
// — packaged for three kinds of users.
//
//  1. Language users write MojC (a C dialect with speculate/commit/abort/
//     retry/migrate builtins), compile it with Compile, and run it with
//     Process on either execution engine. This is the paper's headline
//     interface (§2): checkpointing a long-running application is a
//     handful of annotations.
//
//  2. Systems embedders use Region, a Go-level speculative memory: a heap
//     with copy-on-write speculation levels, stable speculation IDs, and
//     the paper's commit/rollback semantics, usable directly from Go code
//     without going through the compiler.
//
//  3. Distributed-systems users combine Process with a Migrator
//     (checkpoint stores, migration servers) and the cluster/grid layers
//     to build fault-tolerant distributed applications; see
//     examples/grid.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/migrate"
	"repro/internal/rt"
	"repro/internal/spec"
)

// Program is a compiled MCC program.
type Program struct {
	FIR *fir.Program
}

// Compile compiles MojC source against the standard externals plus any
// extra signatures.
func Compile(src string, extra map[string]fir.ExternSig) (*Program, error) {
	sigs := rt.StdExterns().Sigs()
	for n, s := range extra {
		sigs[n] = s
	}
	p, err := lang.Compile(src, sigs)
	if err != nil {
		return nil, err
	}
	return &Program{FIR: p}, nil
}

// CompilePascal compiles MojPascal source (the second MCC frontend; the
// paper's compiler collection accepts C, Pascal, ML and Java).
func CompilePascal(src string, extra map[string]fir.ExternSig) (*Program, error) {
	sigs := rt.StdExterns().Sigs()
	for n, s := range extra {
		sigs[n] = s
	}
	p, err := lang.CompilePascal(src, sigs)
	if err != nil {
		return nil, err
	}
	return &Program{FIR: p}, nil
}

// Encode serializes the program in the canonical migration format.
func (p *Program) Encode() []byte { return fir.EncodeProgram(p.FIR) }

// DecodeProgram parses a canonically-encoded program.
func DecodeProgram(data []byte) (*Program, error) {
	fp, err := fir.DecodeProgram(data)
	if err != nil {
		return nil, err
	}
	return &Program{FIR: fp}, nil
}

// Process is a running MCC program on one of the execution engines: an
// rt.Proc (RegisterExtern, Start, Run, RunSteps, Status, HaltCode, Err,
// Steps, …) that can also be wired to a migrator.
type Process struct {
	rt.Proc
}

// NewProcess creates a process on the named engine (internal/engine's
// registry; "" selects the default interpreter); register externs and a
// migrator before Start.
func NewProcess(p *Program, engineName string, cfg rt.Config) (*Process, error) {
	eng, err := engine.Get(engineName)
	if err != nil {
		return nil, err
	}
	return &Process{eng.New(p.FIR, cfg)}, nil
}

// UseMigrator wires the process to a migration client so migrate()
// statements work. Store receives checkpoint/suspend images; dial may be
// nil for plain TCP.
func (p *Process) UseMigrator(store migrate.Store, dial migrate.Dialer) {
	m := &migrate.Migrator{Store: store, Dial: dial}
	p.SetMigrateHandler(m.Handle)
}

// Region is the Go-level speculative memory: the paper's speculation
// primitives applied directly to a managed heap, without the compiler.
// All mutable state lives in heap blocks addressed by Ref; Go code keeping
// its data in a Region gets the same rollback guarantees MojC code does.
type Region struct {
	h   *heap.Heap
	mgr *spec.Manager
}

// Ref is a handle to a block in a Region (a pointer-table index — the
// paper's base pointer).
type Ref struct{ v heap.Value }

// NewRegion creates a speculative memory with the default collector.
func NewRegion(cfg heap.Config) *Region {
	h := heap.New(cfg)
	h.SetCollector(gc.New())
	return &Region{h: h, mgr: spec.New(h)}
}

// Alloc allocates a block of n words (zero-initialized integers).
func (r *Region) Alloc(n int64) (Ref, error) {
	v, err := r.h.Alloc(n)
	if err != nil {
		return Ref{}, err
	}
	return Ref{v: v}, nil
}

// Pin registers a Ref as a GC root for the life of the region; everything
// reachable from a pinned block survives collection.
func (r *Region) Pin(ref Ref) {
	v := ref.v
	r.h.AddRoots(func(yield func(heap.Value)) { yield(v) })
}

// SetInt stores an integer word (with the §4.1.1 safety checks).
func (r *Region) SetInt(ref Ref, off, val int64) error {
	return r.h.Store(ref.v, off, heap.IntVal(val))
}

// GetInt loads an integer word.
func (r *Region) GetInt(ref Ref, off int64) (int64, error) {
	v, err := r.h.Load(ref.v, off)
	if err != nil {
		return 0, err
	}
	if v.Kind != heap.KInt {
		return 0, fmt.Errorf("core: word %d holds %s, want int", off, v.Kind)
	}
	return v.I, nil
}

// SetFloat stores a float word.
func (r *Region) SetFloat(ref Ref, off int64, val float64) error {
	return r.h.Store(ref.v, off, heap.FloatVal(val))
}

// GetFloat loads a float word.
func (r *Region) GetFloat(ref Ref, off int64) (float64, error) {
	v, err := r.h.Load(ref.v, off)
	if err != nil {
		return 0, err
	}
	if v.Kind != heap.KFloat {
		return 0, fmt.Errorf("core: word %d holds %s, want float", off, v.Kind)
	}
	return v.F, nil
}

// SetRef stores a reference word (building linked structures).
func (r *Region) SetRef(ref Ref, off int64, val Ref) error {
	return r.h.Store(ref.v, off, val.v)
}

// GetRef loads a reference word.
func (r *Region) GetRef(ref Ref, off int64) (Ref, error) {
	v, err := r.h.Load(ref.v, off)
	if err != nil {
		return Ref{}, err
	}
	if v.Kind != heap.KPtr {
		return Ref{}, fmt.Errorf("core: word %d holds %s, want ptr", off, v.Kind)
	}
	return Ref{v: v}, nil
}

// Speculate enters a new speculation level and returns its stable ID
// (always positive). Region speculations have no saved continuation — Go
// code drives control flow — so Abort restores state and returns to the
// caller instead of re-entering.
func (r *Region) Speculate() int64 {
	_, id := r.mgr.Enter(spec.Continuation{FnIndex: -1})
	return id
}

// Commit folds the identified level into the one below it; commits may
// occur out of order (§4.3.1).
func (r *Region) Commit(id int64) error {
	ord, err := r.mgr.OrdinalOf(id)
	if err != nil {
		return err
	}
	return r.mgr.Commit(ord)
}

// Abort reverts every change made in the identified level and all later
// levels, then closes the level: the heap is restored to its state at the
// matching Speculate call.
func (r *Region) Abort(id int64) error {
	ord, err := r.mgr.OrdinalOf(id)
	if err != nil {
		return err
	}
	if _, err := r.mgr.Rollback(ord); err != nil {
		return err
	}
	// The manager re-entered the level (retry semantics, §4.3.1); Go
	// callers use explicit control flow, so close the re-entered level.
	return r.mgr.Commit(ord)
}

// Depth returns the number of open speculation levels.
func (r *Region) Depth() int { return r.mgr.Depth() }

// Collect forces a full compacting collection.
func (r *Region) Collect() { r.h.CollectMajor() }

// Heap exposes the underlying heap for statistics and snapshots.
func (r *Region) Heap() *heap.Heap { return r.h }

// MutateFraction reports the fraction of live blocks modified inside open
// speculations (§5's "mutation percentile").
func (r *Region) MutateFraction() float64 { return r.h.MutateFraction() }
