// Distributed mode for any registered workload: the same program,
// speculation/MSG_ROLL semantics and checkpoint recovery as the
// in-process engine, but with every node in its own OS process joined
// over TCP through a transport.Hub. RunDistributed is the coordinator
// half; RunWorker is the per-process worker half (cmd/mojrun wires both
// to flags). The split is engine-shaped, not process-shaped, so tests
// run "workers" as goroutines against a real loopback hub — including
// with fault-injected links — and assert bit-identical results.
package workload

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrNodeFailed is returned by RunWorker when the coordinator declared
// this worker's node failed: the process must die without flushing
// anything (crash semantics); a resurrection worker takes over from the
// shared store.
var ErrNodeFailed = errors.New("workload: node declared failed by coordinator")

// WorkerConfig configures one distributed worker process.
type WorkerConfig struct {
	// Join is the coordinator hub address.
	Join string
	// Node is the node this process hosts. A node listed by the
	// workload's SpareNodes starts no process: the worker idles, ready to
	// adopt a migrate("node://K") handoff.
	Node int64
	// Params are the workload parameters (identical on every worker —
	// SPMD).
	Params Params
	// Resume, when non-empty, resurrects the node from this checkpoint in
	// the shared store instead of starting fresh.
	Resume string
	// Timeout bounds the node's run (default 2m).
	Timeout time.Duration
	// Stdout receives process output (default: discard).
	Stdout io.Writer
	// Fault, when set, wraps the worker's link with the frame-level fault
	// injector (tests only).
	Fault *transport.FaultSpec
	// RetryBase overrides the client reconnect backoff (tests).
	RetryBase time.Duration
	// Trace, when set, records this worker's engine lifecycle and wire
	// events (see cluster.EngineConfig.Trace, transport.ClientConfig.Trace).
	Trace *obs.Tracer
}

// RunWorker hosts one node of a workload in this OS process: a
// single-node cluster.Engine whose router uplinks to the coordinator and
// whose checkpoint store is the store.Server beside the coordinator's
// hub, reached over a connection of its own. It reports every terminal
// node state to the coordinator and returns this node's own final state
// (nil for a spare that adopted nothing before shutdown).
func RunWorker(w Workload, cfg WorkerConfig) (*cluster.ProcState, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	p, err := Normalize(w, cfg.Params)
	if err != nil {
		return nil, err
	}
	spare := false
	for _, s := range w.SpareNodes(p) {
		if s == cfg.Node {
			spare = true
		}
	}

	router := msg.NewRouter()
	router.SetLocal(cfg.Node)

	var (
		engine      *cluster.Engine
		engineReady = make(chan struct{})
		failedCh    = make(chan struct{})
		failOnce    sync.Once
		adoptedCh   = make(chan struct{})
		adoptOnce   sync.Once
	)
	clientCfg := transport.ClientConfig{
		Addr:   cfg.Join,
		Node:   cfg.Node,
		Router: router,
		OnFail: func() { failOnce.Do(func() { close(failedCh) }) },
		OnAdopt: func(dst, seen int64, img *wire.Image) (func(), error) {
			<-engineReady
			router.SetLocal(dst)
			start, err := engine.Adopt(dst, img, seen, w.Externs(p, dst))
			if err != nil {
				return nil, err
			}
			adoptOnce.Do(func() { close(adoptedCh) })
			return start, nil
		},
		Resurrect: cfg.Resume != "",
		RetryBase: cfg.RetryBase,
		Trace:     cfg.Trace,
	}
	if cfg.Fault != nil {
		clientCfg.Wrap = cfg.Fault.Wrap
	}
	client, err := transport.Dial(clientCfg)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	router.SetUplink(client)
	st := store.DialRemote(client.StoreAddr())
	defer st.Close()

	ckptOpts, err := p.CkptOptions()
	if err != nil {
		return nil, err
	}
	engine = cluster.NewEngine(cluster.EngineConfig{
		Engine:        p.Engine,
		Store:         st,
		Router:        router,
		Stdout:        cfg.Stdout,
		RemoteHandoff: client.Handoff,
		Extra:         func(node int64) rt.Registry { return w.Externs(p, node) },
		Ckpt:          ckptOpts,
		Trace:         cfg.Trace,
	})
	defer engine.Close()
	close(engineReady)

	switch {
	case cfg.Resume != "":
		// Resurrect from the shared store. Dial already synced the
		// rollback epoch, and Engine.Resurrect marks the checkpoint as
		// the rollback point (Router.Restore), so this incarnation does
		// not re-observe the failure that killed its predecessor.
		if err := engine.Resurrect(cfg.Node, cfg.Resume, w.Externs(p, cfg.Node)); err != nil {
			return nil, fmt.Errorf("workload %s: resurrecting node %d from %q: %w", w.Name(), cfg.Node, cfg.Resume, err)
		}
	case spare:
		// A spare hosts no initial process: it waits for a cross-process
		// node://K handoff to adopt, then runs the adopted incarnation.
		t := time.NewTimer(cfg.Timeout)
		defer t.Stop()
		select {
		case <-adoptedCh:
		case <-failedCh:
			engine.Close()
			return nil, ErrNodeFailed
		case <-t.C:
			return nil, fmt.Errorf("workload %s: spare node %d was never migrated to within %s", w.Name(), cfg.Node, cfg.Timeout)
		}
	default:
		prog, err := Compile(w, p)
		if err != nil {
			return nil, err
		}
		if err := engine.StartProcess(cfg.Node, prog, w.NodeArgs(p), w.Externs(p, cfg.Node)); err != nil {
			return nil, err
		}
	}

	type waited struct {
		states map[int64]*cluster.ProcState
		err    error
	}
	done := make(chan waited, 1)
	go func() {
		states, err := engine.Wait(cfg.Timeout)
		done <- waited{states, err}
	}()

	select {
	case <-failedCh:
		// Crash semantics: report nothing, flush nothing. The coordinator
		// already advanced the epoch; survivors are rolling back. Fail
		// stops the node and withholds the head refs of its in-flight
		// commits, as in process: a checkpoint the dead incarnation takes
		// after its kill must not become its resurrection's.
		engine.Fail(cfg.Node)
		engine.Close()
		return nil, ErrNodeFailed
	case w2 := <-done:
		if w2.err != nil {
			return nil, w2.err
		}
		rolls := router.Stats().Rolls
		var own *cluster.ProcState
		first := true
		for node, st := range w2.states {
			res := transport.Result{
				Node: node, Status: st.Status, Halt: st.Halt,
				Steps: st.Steps,
			}
			if first {
				// The Rolls counter is router-wide; attach it to exactly
				// one hosted node so the coordinator's sum counts each
				// MSG_ROLL delivery once.
				res.Rolls = rolls
				first = false
			}
			if st.Err != nil {
				res.Err = st.Err.Error()
			}
			if err := client.Exit(res); err != nil {
				return nil, err
			}
			if node == cfg.Node {
				own = st
			}
		}
		return own, nil
	}
}

// SpawnFunc launches a worker process for a node; resume is empty for a
// fresh start or a checkpoint name for a resurrection. cmd/mojrun
// re-executes its own binary; in-process tests start a goroutine.
type SpawnFunc func(join string, node int64, resume string) error

// DistributedConfig configures the coordinator side of a distributed
// run.
type DistributedConfig struct {
	// Listen is the hub's listen address (default "127.0.0.1:0").
	Listen string
	// Store backs the shared checkpoint store (default in-memory; real
	// deployments pass a cluster.DirStore on the shared mount).
	Store migrate.Store
	// Spawn launches workers. When nil, the coordinator spawns nothing
	// and waits for externally started workers to join (mojrun
	// -coordinator); a fault script then cannot resurrect and is
	// rejected.
	Spawn SpawnFunc
	// Logf, when set, receives coordinator progress lines.
	Logf func(format string, args ...any)
	// Trace, when set, records the hub's relay activity on the "hub"
	// stream (coordinator-side view of the run).
	Trace *obs.Tracer
}

// RunDistributed executes a workload across worker processes joined
// through a TCP hub, driving the run through the fault script (multiple
// timed failures, each killing the worker process and resurrecting a
// fresh one from the shared checkpoint store), and returns the
// aggregated result. Callers check it with w.Verify.
func RunDistributed(w Workload, p Params, script *FaultScript, cfg DistributedConfig, timeout time.Duration) (*Result, error) {
	p, err := Normalize(w, p)
	if err != nil {
		return nil, err
	}
	if script != nil && len(script.Events) > 0 && cfg.Spawn == nil {
		return nil, errors.New("workload: a fault script needs a spawner to resurrect nodes")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Store == nil {
		cfg.Store = cluster.NewMemStore()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var hub *transport.Hub
	driver := newScriptDriver(script, w.CheckpointName,
		func(node int64) {
			logf("coordinator: killing node %d (fault script)", node)
			hub.Fail(node)
		},
		func(node int64, checkpoint string) error {
			logf("coordinator: resurrecting node %d from %q", node, checkpoint)
			// If the killed incarnation had already reported (the kill landed
			// after it finished), drop the stale result so the coordinator
			// waits for the resurrected incarnation's report.
			hub.ClearResult(node)
			return cfg.Spawn(hub.Addr(), node, checkpoint)
		})
	// The hub serves the store through the same put trigger as the
	// in-process runner: a scripted kill fires inside the Nth Put.
	hub, err = transport.Listen(cfg.Listen,
		&observableStore{Store: cfg.Store, onPut: driver.OnPut, puts: make(map[string]int)})
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	hub.Trace = cfg.Trace
	wireStoreFaults(driver, cfg.Store)
	driver.setPartitioner(hub.Partition, hub.HealPartition)
	driver.setCrashResurrect(func(node int64, checkpoint string) error {
		logf("coordinator: crash-resurrecting node %d from %q", node, checkpoint)
		hub.ClearResult(node)
		if err := cfg.Spawn(hub.Addr(), node, checkpoint); err != nil {
			return err
		}
		// Re-kill the resurrection worker once it has joined — the closest
		// a coordinator gets to the in-process engine's unpack window. If
		// it never joins in time, fall through to a plain resurrect.
		if !hub.WaitSession(node, DefaultStallTimeout) {
			return nil
		}
		hub.Fail(node)
		hub.ClearResult(node)
		return cfg.Spawn(hub.Addr(), node, checkpoint)
	})

	starts := w.StartNodes(p)
	spares := w.SpareNodes(p)
	expect := len(starts) + len(spares)

	start := time.Now()
	deadline := start.Add(timeout)
	if cfg.Spawn != nil {
		// Spares first, and joined, before anything that may hand off to
		// them runs: a node://K handoff to a node no worker hosts yet is
		// refused, the migrating process carries on where it was (§4.2.1)
		// and its peers, already addressing K, wait for it forever. A
		// start node needs microseconds to reach its first handoff once
		// its program comes compiled from Compile's memo.
		spawn := func(nodes []int64) error {
			for _, n := range nodes {
				if err := cfg.Spawn(hub.Addr(), n, ""); err != nil {
					return fmt.Errorf("workload %s: spawning node %d: %w", w.Name(), n, err)
				}
			}
			return nil
		}
		if err := spawn(spares); err != nil {
			return nil, err
		}
		for _, n := range spares {
			if !hub.WaitSession(n, time.Until(deadline)) {
				return nil, fmt.Errorf("workload %s: spare node %d never joined", w.Name(), n)
			}
		}
		if err := spawn(starts); err != nil {
			return nil, err
		}
	} else {
		logf("coordinator: waiting for %d workers to join %s", expect, hub.Addr())
	}

	results, err := hub.WaitResults(expect, timeout)
	// Same end-of-run care as the in-process runner: a scripted kill that
	// landed after its node finished is still resurrecting — wait for the
	// revived worker's fresh report rather than returning stale results.
	for err == nil && !driver.idle() && driver.inFlightNow() && time.Now().Before(deadline) {
		driver.waitNotInFlight(deadline)
		results, err = hub.WaitResults(expect, time.Until(deadline)+time.Second)
	}
	res := &Result{Elapsed: time.Since(start)}
	if err != nil {
		return nil, err
	}
	res.Resurrections, err = driver.finish()
	if err != nil {
		return nil, err
	}

	res.Nodes = make(map[int64]NodeResult, len(results))
	for n, r := range results {
		res.Nodes[n] = NodeResult{Node: n, Status: r.Status, Halt: r.Halt, Steps: r.Steps, Err: r.Err}
		res.Rollbacks += r.Rolls
	}
	return res, nil
}
