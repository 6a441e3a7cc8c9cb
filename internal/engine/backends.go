package engine

// The built-in execution backends, registered at init. They are defined
// here rather than in their own packages so vm, risc and jit stay free of
// registry plumbing (and of this package).

import (
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/jit"
	"repro/internal/memo"
	"repro/internal/risc"
	"repro/internal/rt"
	"repro/internal/spec"
	"repro/internal/vm"
)

func init() {
	Register(vmFactory{})
	Register(riscFactory{})
	Register(jitFactory{})
}

// artifactCache memoizes per-program compiled artifacts by program
// identity, bounded FIFO. Factories assume a program handed to New or
// Precompile is not mutated afterwards — the cluster engine's usage
// pattern (one program fanned out to every node, run after run). Fresh
// starts and resumes both go through it: workload.Compile hands every
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

var (
	vmCache   = newArtifactCache[*vm.Compiled]("vm")
	riscCache = newArtifactCache[*risc.Module]("risc")
	jitCache  = newArtifactCache[*jit.Compiled]("jit")
)

// CacheStats snapshots the per-engine artifact-cache counters (hits,
// misses, evictions, live entries). Wire it into an obs.Registry as the
// "engine" source to see compile reuse in daemon snapshots and traces.
func CacheStats() map[string]uint64 {
	out := make(map[string]uint64, 12)
	vmCache.stats(out)
	riscCache.stats(out)
	jitCache.stats(out)
	return out
}

type vmFactory struct{}

func (vmFactory) Name() string { return "vm" }

func (vmFactory) Description() string {
	return "slot-resolved FIR interpreter (the paper's interpreted runtime environment)"
}

func (vmFactory) New(prog *fir.Program, cfg Config) (rt.Exec, error) {
	c := vmConfig(cfg)
	// A compile error is left for Start to surface after the type check,
	// matching the uncached path's error order.
	if comp, err := vmCache.load(prog, vm.Precompile); err == nil {
		c.Compiled = comp
	}
	return vm.NewProcess(prog, c), nil
}

func (vmFactory) Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	return vm.ResumeProcess(prog, h, conts, vmConfig(cfg))
}

func (vmFactory) Precompile(prog *fir.Program) (any, error) {
	return vmCache.load(prog, vm.Precompile)
}

func (vmFactory) ResumeWith(art any, prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	c := vmConfig(cfg)
	c.Compiled = art.(*vm.Compiled)
	return vm.ResumeProcess(prog, h, conts, c)
}

func vmConfig(cfg Config) vm.Config {
	return vm.Config{
		Heap: cfg.Heap, Collector: cfg.Collector, Stdout: cfg.Stdout,
		Fuel: cfg.Fuel, TrapSpeculation: cfg.TrapSpeculation,
		Name: cfg.Name, Args: cfg.Args, Seed: cfg.Seed,
	}
}

type riscFactory struct{}

func (riscFactory) Name() string { return "risc" }

func (riscFactory) Description() string {
	return "compiled RISC simulator with linear-scan register allocation (the paper's machine-code runtime)"
}

func (riscFactory) New(prog *fir.Program, cfg Config) (rt.Exec, error) {
	// A compile error is left for Start to surface after the type check,
	// matching the uncached path's error order: mod stays nil.
	mod, _ := riscCache.load(prog, risc.Compile)
	return risc.NewMachine(prog, mod, riscConfig(cfg))
}

func (riscFactory) Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	return risc.ResumeMachine(prog, nil, h, conts, riscConfig(cfg))
}

func (riscFactory) Precompile(prog *fir.Program) (any, error) {
	return riscCache.load(prog, risc.Compile)
}

func (riscFactory) ResumeWith(art any, prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	return risc.ResumeMachine(prog, art.(*risc.Module), h, conts, riscConfig(cfg))
}

func riscConfig(cfg Config) risc.Config {
	return risc.Config{
		Heap: cfg.Heap, Collector: cfg.Collector, Stdout: cfg.Stdout,
		Fuel: cfg.Fuel, TrapSpeculation: cfg.TrapSpeculation,
		Name: cfg.Name, Args: cfg.Args, Seed: cfg.Seed,
	}
}

type jitFactory struct{}

func (jitFactory) Name() string { return "jit" }

func (jitFactory) Description() string {
	return "threaded-code engine: specialized opcodes + fused superinstructions (compare-and-branch, load/store runs)"
}

func (jitFactory) New(prog *fir.Program, cfg Config) (rt.Exec, error) {
	c := jitConfig(cfg)
	// A compile error is left for Start to surface after the type check,
	// matching the uncached path's error order.
	if comp, err := jitCache.load(prog, jit.Precompile); err == nil {
		c.Compiled = comp
	}
	return jit.NewMachine(prog, c), nil
}

func (jitFactory) Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	return jit.ResumeMachine(prog, h, conts, jitConfig(cfg))
}

func (jitFactory) Precompile(prog *fir.Program) (any, error) {
	return jitCache.load(prog, jit.Precompile)
}

func (jitFactory) ResumeWith(art any, prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error) {
	c := jitConfig(cfg)
	c.Compiled = art.(*jit.Compiled)
	return jit.ResumeMachine(prog, h, conts, c)
}

func jitConfig(cfg Config) jit.Config {
	return jit.Config{
		Heap: cfg.Heap, Collector: cfg.Collector, Stdout: cfg.Stdout,
		Fuel: cfg.Fuel, TrapSpeculation: cfg.TrapSpeculation,
		Name: cfg.Name, Args: cfg.Args, Seed: cfg.Seed,
	}
}
