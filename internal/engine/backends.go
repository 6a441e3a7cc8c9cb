package engine

// The built-in execution engines, registered at init. They are defined
// here rather than in their own packages so vm and jit stay free of
// registry plumbing (and of this package).

import (
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/jit"
	"repro/internal/memo"
	"repro/internal/rt"
	"repro/internal/spec"
	"repro/internal/vm"
)

func init() {
	Register(vmBackend)
	Register(jitBackend)
}

// artifactCache memoizes per-program compiled artifacts by program
// identity, bounded FIFO. Factories assume a program handed to New or
// Precompile is not mutated afterwards — the cluster engine's usage
// pattern (one program fanned out to every node, run after run). Fresh
// starts and resumes all go through it: workload.Compile hands every
// node of a run the same program, and migrate.Unpack interns the programs
// it decodes, so a restore of code this process already compiled is a
// hit. Concurrent callers for one program share one compilation.
type artifactCache[A any] struct {
	name string
	t    *memo.Table[*fir.Program, A]
}

func newArtifactCache[A any](name string) *artifactCache[A] {
	return &artifactCache[A]{name: name, t: memo.New[*fir.Program, A](artifactCacheMax)}
}

// artifactCacheMax bounds each engine's cache; entries pin their program.
const artifactCacheMax = 16

func (c *artifactCache[A]) load(prog *fir.Program, compile func(*fir.Program) (A, error)) (A, error) {
	art, _, err := c.t.Do(prog, func() (A, error) { return compile(prog) })
	return art, err
}

// stats reports the cache's counters under "<engine>_<counter>" keys.
func (c *artifactCache[A]) stats(into map[string]uint64) {
	st := c.t.Stats()
	into[c.name+"_hits"] = st.Hits
	into[c.name+"_misses"] = st.Misses
	into[c.name+"_evicts"] = st.Evicts
	into[c.name+"_entries"] = uint64(st.Entries)
}

// backend adapts one engine package to Factory: A is its compiled
// artifact, P its process type.
type backend[A any, P rt.Proc] struct {
	name, desc string
	cache      *artifactCache[A]
	compile    func(*fir.Program) (A, error)
	fresh      func(*fir.Program, A, rt.Config) P
	resume     func(*fir.Program, *heap.Heap, []spec.Continuation, A, rt.Config) (P, error)
}

var (
	vmBackend = &backend[*vm.Compiled, *vm.Process]{
		name:    "vm",
		desc:    "slot-resolved FIR interpreter (the paper's interpreted runtime environment; the reference)",
		cache:   newArtifactCache[*vm.Compiled]("vm"),
		compile: vm.Precompile, fresh: vm.NewProcess, resume: vm.ResumeProcess,
	}
	jitBackend = &backend[*jit.Compiled, *jit.Machine]{
		name:    "jit",
		desc:    "threaded-code engine: FIR recompiled to specialized opcodes over frame slots (constants included), kind-specialised where the engine has already enforced every operand's kind, + fused superinstructions (compare-and-branch, load/store runs)",
		cache:   newArtifactCache[*jit.Compiled]("jit"),
		compile: jit.Precompile, fresh: jit.NewMachine, resume: jit.ResumeMachine,
	}
)

// CacheStats snapshots the per-engine artifact-cache counters (hits,
// misses, evictions, live entries). Wire it into an obs.Registry as the
// "engine" source to see compile reuse in daemon snapshots and traces.
func CacheStats() map[string]uint64 {
	out := make(map[string]uint64, 8)
	vmBackend.cache.stats(out)
	jitBackend.cache.stats(out)
	return out
}

func (b *backend[A, P]) Name() string        { return b.name }
func (b *backend[A, P]) Description() string { return b.desc }

// artifact returns prog's cached artifact, or the zero A when it does not
// compile: the process then compiles for itself and reports the error
// from Start (after the type check) or StartAt, where callers expect it.
func (b *backend[A, P]) artifact(prog *fir.Program) A {
	art, _ := b.cache.load(prog, b.compile)
	return art
}

func (b *backend[A, P]) New(prog *fir.Program, cfg rt.Config) rt.Proc {
	return b.fresh(prog, b.artifact(prog), cfg)
}

func (b *backend[A, P]) Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg rt.Config) (rt.Proc, error) {
	p, err := b.resume(prog, h, conts, b.artifact(prog), cfg)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (b *backend[A, P]) Precompile(prog *fir.Program) (any, error) {
	return b.cache.load(prog, b.compile)
}
