// Package workload is the pluggable application layer of the cluster
// runtime: a workload is a named package of {MojC program generator,
// typed parameters, bit-exact sequential reference, result verifier}
// that the generic harness can drive through any fault scenario — on the
// in-process cluster.Engine or distributed across OS processes over the
// TCP transport — without knowing anything about the application itself.
//
// The paper's claim (conf_ipps_SmithTH07) is that speculate/commit/abort
// and migrate turn fault tolerance into a handful of source annotations
// for *any* long-running cluster application; this package is where
// "any" stops being hypothetical. internal/workload/apps registers the
// paper's §2 grid computation next to a ring allreduce, a master–worker
// task farm, a multi-stage pipeline that migrates a stage mid-run, and a
// replicated key-value serving tier.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/memo"
	"repro/internal/rt"
)

// Params is the common tuning surface every workload accepts. Each
// workload documents how it interprets Size and Aux; zero values are
// replaced by the workload's defaults before Validate runs.
type Params struct {
	// Nodes is the number of cluster node IDs the workload occupies,
	// including any spare nodes that exist only as migration targets.
	Nodes int
	// Size is the per-node problem size (grid: rows per node; allreduce:
	// vector length; taskfarm: tasks per batch; pipeline: items per batch).
	Size int
	// Aux is the workload's secondary knob (grid: columns; pipeline: the
	// batch after which the migrating stage hands off; others ignore it).
	Aux int
	// Steps is the number of timesteps / rounds / batches.
	Steps int
	// CheckpointInterval is the paper's checkpoint_interval: commit +
	// checkpoint every this many steps.
	CheckpointInterval int
	// Workers bounds concurrently executing node quanta on the in-process
	// engine (0 = unbounded). Results are bit-identical for every width.
	Workers int
	// Ckpt selects the checkpoint pipeline mode: "" or "full" (classic
	// synchronous full images), "delta" (synchronous incremental), or
	// "async" (incremental with write-behind commit). Results are
	// bit-identical in every mode.
	Ckpt string
	// CkptK bounds delta chains: a full image is forced every CkptK
	// deltas (0 = the pipeline default).
	CkptK int
	// Engine names the execution engine node processes run on: any name
	// engine.Names() lists — "vm" (slot-resolved interpreter; also what ""
	// selects) or "jit" (threaded code). Results are bit-identical on
	// either engine.
	Engine string
}

// CkptOptions parses the checkpoint-pipeline fields.
func (p Params) CkptOptions() (ckpt.Options, error) {
	mode, err := ckpt.ParseMode(p.Ckpt)
	if err != nil {
		return ckpt.Options{}, err
	}
	return ckpt.Options{Mode: mode, K: p.CkptK}, nil
}

// withDefaults fills zero fields from d.
func (p Params) withDefaults(d Params) Params {
	if p.Nodes == 0 {
		p.Nodes = d.Nodes
	}
	if p.Size == 0 {
		p.Size = d.Size
	}
	if p.Aux == 0 {
		p.Aux = d.Aux
	}
	if p.Steps == 0 {
		p.Steps = d.Steps
	}
	if p.CheckpointInterval == 0 {
		p.CheckpointInterval = d.CheckpointInterval
	}
	return p
}

// Normalize fills zero-valued fields of p from the workload's defaults
// and validates the result.
func Normalize(w Workload, p Params) (Params, error) {
	p = p.withDefaults(w.Defaults())
	if p.Workers < 0 {
		return p, fmt.Errorf("workload: worker count %d must be non-negative", p.Workers)
	}
	if _, err := engine.Get(p.Engine); err != nil {
		return p, err
	}
	if _, err := p.CkptOptions(); err != nil {
		return p, err
	}
	if err := w.Validate(p); err != nil {
		return p, err
	}
	return p, nil
}

// NodeResult is one node's final disposition, backend-independent: the
// in-process engine and the distributed transport both reduce to it.
type NodeResult struct {
	Node   int64
	Status rt.Status
	Halt   int64
	Steps  uint64
	Err    string
}

// Workload is one registered application. Implementations must be
// stateless values: the harness calls them from multiple goroutines.
type Workload interface {
	// Name is the registry key (and the -app flag value).
	Name() string
	// Description is one line for -list.
	Description() string
	// Defaults returns the parameter defaults (also the documentation of
	// how Size and Aux are interpreted).
	Defaults() Params
	// Validate checks fully-defaulted parameters.
	Validate(p Params) error
	// Program compiles the per-node MojC/FIR program (SPMD: the same
	// program runs on every node; roles derive from node_id()). It must
	// be a pure function of Name and of p's Nodes, Size, Aux, Steps and
	// CheckpointInterval — a knob the code is not shaped by travels in
	// NodeArgs instead — and nothing may mutate the result: Compile calls
	// it once per such shape and hands every later caller, on any
	// goroutine, the same *fir.Program.
	Program(p Params) (*fir.Program, error)
	// NodeArgs builds the process arguments (getarg) — identical on every
	// node.
	NodeArgs(p Params) []int64
	// StartNodes lists the node IDs that get an initial process.
	StartNodes(p Params) []int64
	// SpareNodes lists node IDs that exist only as migration targets: the
	// distributed runner spawns an idle worker for each, waiting to adopt.
	SpareNodes(p Params) []int64
	// CheckpointName is the shared-store name a node checkpoints to.
	CheckpointName(node int64) string
	// Externs returns the application externs bound to a node (at minimum
	// ck_name; see CkExtern).
	Externs(p Params, node int64) rt.Registry
	// Reference replays the identical computation sequentially in Go and
	// returns the expected halt code for every node expected to halt.
	// Nodes absent from the map (e.g. a migrated-away source node) are
	// checked by Verify instead.
	Reference(p Params) map[int64]int64
	// Verify checks a run's final node states against the sequential
	// reference, bit-exactly.
	Verify(p Params, nodes map[int64]NodeResult) error
}

// ---------------------------------------------------------------------------
// Registry

var registry struct {
	mu sync.Mutex
	m  map[string]Workload
}

// Register installs a workload under its name. Registering the same name
// twice panics: it is a wiring bug, not a runtime condition.
func Register(w Workload) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.m == nil {
		registry.m = make(map[string]Workload)
	}
	name := w.Name()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("workload: %q registered twice", name))
	}
	registry.m[name] = w
}

// Get returns a registered workload.
func Get(name string) (Workload, error) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	w, ok := registry.m[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q (have %v)", name, namesLocked())
	}
	return w, nil
}

// Names lists registered workloads, sorted.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Compile once

// programShape is what Workload.Program may depend on. Execution-side
// knobs (engine, workers, checkpoint pipeline mode) deliberately do not
// split the memo: the same FIR runs on every engine.
type programShape struct {
	app                             string
	nodes, size, aux, steps, ckIntv int
}

// programs bounds what a long-lived daemon keeps of the shapes its
// tenants have submitted; an evicted shape compiles again.
var programs = memo.New[programShape, *fir.Program](64)

// Compile returns the program w runs under p, compiling it on the first
// request for that shape in this process and returning the same pointer
// afterwards. The pointer is the point: the type-check verdict and every
// engine's compiled artifact are keyed on program identity, so the nodes
// of a run, the goroutine workers of a distributed run and the tenants of
// a daemon that share a shape share one compile of everything. Nothing
// else in this module calls w.Program outside tests.
func Compile(w Workload, p Params) (*fir.Program, error) {
	shape := programShape{
		app: w.Name(), nodes: p.Nodes, size: p.Size, aux: p.Aux,
		steps: p.Steps, ckIntv: p.CheckpointInterval,
	}
	prog, _, err := programs.Do(shape, func() (*fir.Program, error) { return w.Program(p) })
	return prog, err
}

// ---------------------------------------------------------------------------
// Shared helpers for implementations

// CkExtern builds the ck_name extern: the checkpoint:// target string a
// node's migrate pseudo-instruction writes to.
func CkExtern(name string) rt.Registry {
	return rt.Registry{
		"ck_name": {
			Sig: fir.ExternSig{Result: fir.TyPtr},
			Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
				return r.Heap().AllocString("checkpoint://" + name)
			},
		},
	}
}

// StrExtern builds a no-argument extern returning a fixed string — the
// idiom for migration targets the program cannot format itself.
func StrExtern(s string) rt.Extern {
	return rt.Extern{
		Sig: fir.ExternSig{Result: fir.TyPtr},
		Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
			return r.Heap().AllocString(s)
		},
	}
}

// Range returns the node IDs [0, n).
func Range(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// VerifyHalted is the default verifier: every node in want must have
// halted with exactly the reference halt code.
func VerifyHalted(want map[int64]int64, nodes map[int64]NodeResult) error {
	order := make([]int64, 0, len(want))
	for n := range want {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, n := range order {
		st, ok := nodes[n]
		if !ok {
			return fmt.Errorf("workload: node %d reported no final state", n)
		}
		if st.Status != rt.StatusHalted {
			return fmt.Errorf("workload: node %d finished %s (err: %s)", n, st.Status, st.Err)
		}
		if st.Halt != want[n] {
			return fmt.Errorf("workload: node %d halt %d, want %d (diverged from the sequential reference)", n, st.Halt, want[n])
		}
	}
	return nil
}
