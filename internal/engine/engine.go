// Package engine is the pluggable execution-engine layer of the cluster
// runtime. An engine is a named factory for rt.Proc processes — the
// slot-resolved FIR interpreter ("vm", the default and the reference) and
// the threaded-code engine ("jit", the fast one) register themselves here
// — and every layer above (cluster.Engine, migrate.Unpack, core, the
// workload harness, the -engine flag of every command) selects one by
// name. Both execute programs bit-exactly against the same rt shell and
// heap/ops/spec semantics, so the choice is purely a performance knob:
// results, halt codes, step counts and checkpoint recovery are identical,
// and an image packed on one resumes on the other.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
	"repro/internal/spec"
)

// DefaultName is the engine used when no selection is made. It is the
// interpreter: the historical behaviour of every runner.
const DefaultName = "vm"

// Factory builds processes on one execution engine. Compiled code is
// kept per program in the engine's artifact cache, so New, Resume and
// Precompile compile a given Program at most once between them.
type Factory interface {
	// Name is the registry key (and the -engine flag value).
	Name() string
	// Description is one line for documentation and -engine error text.
	Description() string
	// New creates a fresh process for prog. Register externs and a
	// migration handler on the result, then call Start.
	New(prog *fir.Program, cfg rt.Config) rt.Proc
	// Resume builds a process around a restored heap and speculation
	// continuation stack — the unpack path. Register externs on the
	// result, then call StartAt.
	Resume(prog *fir.Program, h *heap.Heap, conts []spec.Continuation, cfg rt.Config) (rt.Proc, error)
	Precompiler
}

// Precompiler is the code-generation half of a Factory, callable (and
// timed) separately from process construction — the paper's E1
// migration-cost breakdown attributes recompilation at the target on its
// own line. Precompile returns prog's compiled artifact, compiling it
// unless the engine's artifact cache already holds one for this exact
// Program; a following New or Resume of that Program finds it there.
type Precompiler interface {
	Precompile(prog *fir.Program) (any, error)
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

// Usage describes the registered engines for a command's -engine flag:
// "NAME: description; NAME: description [default vm]".
func Usage() string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var b strings.Builder
	for i, n := range namesLocked() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", n, registry.m[n].Description())
	}
	fmt.Fprintf(&b, " [default %s]", DefaultName)
	return b.String()
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
