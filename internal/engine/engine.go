// Package engine is the pluggable execution-engine layer of the cluster
// runtime. An engine is a named factory for rt.Exec backends — the
// slot-resolved FIR interpreter ("vm"), the register-allocated RISC
// simulator ("risc") and the threaded-code engine ("jit") register
// themselves here — and every layer above (cluster.Engine,
// migrate.Unpack, the workload harness, mojrun/gridrun's -engine flag)
// selects one by name. The built-ins execute programs bit-exactly against
// the same heap/ops/spec semantics, so the choice is purely a performance
// knob: results, halt codes and checkpoint recovery are identical on all
// of them.
package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
	"repro/internal/spec"
)

// DefaultName is the engine used when no selection is made. It is the
// interpreter: the historical behaviour of every runner.
const DefaultName = "vm"

// Config configures a new or resumed process, backend-independently. It
// mirrors vm.Config/risc.Config field for field.
type Config struct {
	// Heap configures the process heap.
	Heap heap.Config
	// Collector overrides the default generational policy.
	Collector heap.Collector
	// Stdout receives output from the print externs (default: discard).
	Stdout io.Writer
	// Fuel bounds the number of execution steps (0 = unlimited).
	Fuel uint64
	// TrapSpeculation turns trapped runtime errors inside a speculation
	// into automatic rollbacks of the innermost level.
	TrapSpeculation bool
	// Name identifies the process in errors and logs.
	Name string
	// Args are process arguments readable through the getarg extern.
	Args []int64
	// Seed seeds the deterministic rand_int extern.
	Seed int64
}

// Factory builds processes on one execution backend.
type Factory interface {
	// Name is the registry key (and the -engine flag value).
	Name() string
	// Description is one line for documentation and -engine error text.
	Description() string
	// New creates a fresh process for prog. Register externs and a
	// migration handler on the result, then call Start.
	New(prog *fir.Program, cfg Config) (rt.Exec, error)
	// Resume builds a process around a restored heap and speculation
	// continuation stack — the unpack path. Register externs on the
	// result, then call StartAt.
	Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error)
}

// Precompiler is implemented by factories whose code generation can be
// performed (and timed) separately from process construction — the
// paper's E1 migration-cost breakdown attributes recompilation at the
// target on its own line. Precompile returns prog's compiled artifact,
// compiling it unless the engine's artifact cache already holds one for
// this exact Program; ResumeWith resumes a process using it. The artifact
// is only valid for the Program it was compiled from.
type Precompiler interface {
	Precompile(prog *fir.Program) (any, error)
	ResumeWith(art any, prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg Config) (rt.Exec, error)
}

var registry struct {
	mu sync.Mutex
	m  map[string]Factory
}

// Register installs a factory under its name. Registering a name twice
// panics: it is a wiring bug, not a runtime condition.
func Register(f Factory) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.m == nil {
		registry.m = make(map[string]Factory)
	}
	name := f.Name()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("engine: %q registered twice", name))
	}
	registry.m[name] = f
}

// Get returns a registered factory; the empty name selects the default.
func Get(name string) (Factory, error) {
	if name == "" {
		name = DefaultName
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	f, ok := registry.m[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown execution engine %q (have %v)", name, namesLocked())
	}
	return f, nil
}

// Names lists registered engines, sorted.
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
