package workload

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/rt"
)

// Result summarizes one cluster run of a workload, on either execution
// path (in-process engine or distributed transport).
type Result struct {
	// Nodes holds every node's final disposition (including migrated-away
	// source nodes; the workload's Verify knows which must have halted).
	Nodes map[int64]NodeResult
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Rollbacks is the number of MSG_ROLL deliveries (survivor rollbacks).
	Rollbacks uint64
	// Resurrections counts checkpoint restores performed by the fault
	// script.
	Resurrections int
	// Ckpt holds the checkpoint pipeline counters (bytes written, pause,
	// recovery time). Only the in-process runner fills it: distributed
	// workers keep their own committers.
	Ckpt ckpt.Stats
}

// RunConfig tunes a run beyond the workload parameters.
type RunConfig struct {
	// Script, when set, is the fault scenario to drive the run through.
	Script *FaultScript
	// Timeout bounds the run (default 2m).
	Timeout time.Duration
	// Stdout receives process output (default: discard).
	Stdout io.Writer
	// Program, when set, runs instead of Compile(w, p)'s shared program —
	// for a caller that wants a compile of its own to measure.
	Program *fir.Program
	// Store, when set, backs the run's checkpoints instead of a private
	// MemStore. A multi-tenant server hands every run a namespaced view
	// of one shared store.
	Store migrate.Store
	// Slots, when set, is a shared worker semaphore (see
	// cluster.EngineConfig.Slots): concurrent runs draw their quanta from
	// one bounded machine-wide pool. Overrides Params.Workers.
	Slots chan struct{}
	// Trace, when set, records the run's lifecycle events (see
	// cluster.EngineConfig.Trace). Nil keeps every event site a
	// predictable nop.
	Trace *obs.Tracer
	// Metrics, when set, has the run's engine register its stats surfaces
	// ("msg.*", "ckpt.*", "spec.*") as snapshot sources.
	Metrics *obs.Registry
	// NoInlinePrune disables the committer's best-effort inline prune —
	// set when the store tier's retention GC owns dead-object cleanup.
	NoInlinePrune bool
	// StallTimeout overrides the fault script's put-count trigger
	// fallback bound (see DefaultStallTimeout).
	StallTimeout time.Duration
}

// observableStore wraps a checkpoint store with a put callback, set
// before the first Put: the trigger fault scripts key on (failures land
// at checkpoint boundaries), called inside each successful Put. Both
// runners wrap their store in one; distributed, it is the store the hub
// serves.
type observableStore struct {
	migrate.Store
	onPut func(name string, count int)
	mu    sync.Mutex
	puts  map[string]int
}

func (s *observableStore) Put(name string, data []byte) error {
	if err := s.Store.Put(name, data); err != nil {
		return err
	}
	if migrate.IsCodeName(name) {
		// A program's code object is not a checkpoint: fault scripts
		// count checkpoint writes, per name and in total (delay=ck:).
		return nil
	}
	s.mu.Lock()
	s.puts[name]++
	n := s.puts[name]
	s.mu.Unlock()
	s.onPut(name, n)
	return nil
}

// Run executes a workload on the in-process simulated cluster, driving
// it through the fault script (if any), and returns every node's final
// state. Callers check the result with w.Verify (or use RunVerified).
func Run(w Workload, p Params, cfg RunConfig) (*Result, error) {
	p, err := Normalize(w, p)
	if err != nil {
		return nil, err
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	prog := cfg.Program
	if prog == nil {
		if prog, err = Compile(w, p); err != nil {
			return nil, err
		}
	}

	// The engine default quantum for failure-free runs; a small one under
	// a fault script, or a small program could halt cleanly inside the
	// quantum a kill was posted in and the "failure" would miss its victim.
	var quantum uint64
	if cfg.Script != nil && len(cfg.Script.Events) > 0 {
		quantum = 500
	}
	ckptOpts, err := p.CkptOptions()
	if err != nil {
		return nil, err
	}
	ckptOpts.NoInlinePrune = cfg.NoInlinePrune
	backing := cfg.Store
	if backing == nil {
		backing = cluster.NewMemStore()
	}
	store := &observableStore{Store: backing, puts: make(map[string]int)}
	eng := cluster.NewEngine(cluster.EngineConfig{
		Engine:  p.Engine,
		Store:   store,
		Stdout:  cfg.Stdout,
		Quantum: quantum,
		Workers: p.Workers,
		Slots:   cfg.Slots,
		Ckpt:    ckptOpts,
		Trace:   cfg.Trace,
		// The target of a node://K handoff may never have been started
		// explicitly; the factory binds its externs on arrival.
		Extra: func(node int64) rt.Registry { return w.Externs(p, node) },
	})
	defer eng.Close()
	if cfg.Metrics != nil {
		eng.RegisterMetrics(cfg.Metrics)
	}

	driver := newScriptDriver(cfg.Script, w.CheckpointName,
		eng.Fail,
		func(node int64, checkpoint string) error {
			return eng.Resurrect(node, checkpoint, w.Externs(p, node))
		})
	store.onPut = driver.OnPut
	wireStoreFaults(driver, backing)
	driver.setPartitioner(eng.Router.Partition, eng.Router.HealPartition)
	driver.setCrashResurrect(func(node int64, checkpoint string) error {
		// Re-kill the node inside its own resurrection window — after the
		// checkpoint image is unpacked, before the new incarnation runs a
		// step — then resurrect the dead-on-arrival incarnation again.
		eng.SetResurrectWindowHook(func(n int64, _ string) {
			if n == node {
				eng.Fail(n)
			}
		})
		err := eng.Resurrect(node, checkpoint, w.Externs(p, node))
		eng.SetResurrectWindowHook(nil)
		if err != nil {
			return err
		}
		return eng.Resurrect(node, checkpoint, w.Externs(p, node))
	})
	if cfg.StallTimeout > 0 {
		driver.setStallTimeout(cfg.StallTimeout)
	}

	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	args := w.NodeArgs(p)
	for _, n := range w.StartNodes(p) {
		if err := eng.StartProcess(n, prog, args, w.Externs(p, n)); err != nil {
			return nil, fmt.Errorf("workload %s: starting node %d: %w", w.Name(), n, err)
		}
	}
	states, err := eng.Wait(cfg.Timeout)
	// The cluster going quiet does not end the run while a scripted kill
	// is mid-resurrection — the revived node is about to wake it again.
	// (A kill can land at the very end of the run: checkpoint triggers
	// trail capture under async commit.)
	for err == nil && !driver.idle() && driver.inFlightNow() && time.Now().Before(deadline) {
		driver.waitNotInFlight(deadline)
		states, err = eng.Wait(time.Until(deadline) + time.Second)
	}
	res := &Result{Elapsed: time.Since(start)}
	if err != nil {
		return nil, err
	}
	res.Resurrections, err = driver.finish()
	if err != nil {
		return nil, err
	}

	res.Nodes = make(map[int64]NodeResult, len(states))
	for n, st := range states {
		if st.Killed {
			return nil, fmt.Errorf("workload %s: node %d still marked killed at exit", w.Name(), n)
		}
		nr := NodeResult{Node: n, Status: st.Status, Halt: st.Halt, Steps: st.Steps}
		if st.Err != nil {
			nr.Err = st.Err.Error()
		}
		res.Nodes[n] = nr
	}
	res.Rollbacks = eng.Router.Stats().Rolls
	res.Ckpt = eng.CkptStats()
	return res, nil
}

// RunVerified is Run followed by the workload's own bit-exact
// verification against its sequential reference.
func RunVerified(w Workload, p Params, cfg RunConfig) (*Result, error) {
	p, err := Normalize(w, p)
	if err != nil {
		return nil, err
	}
	res, err := Run(w, p, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		return res, err
	}
	return res, nil
}
