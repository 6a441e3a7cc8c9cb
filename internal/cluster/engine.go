package cluster

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/spec"
	"repro/internal/wire"
)

// EngineConfig configures a parallel cluster engine.
type EngineConfig struct {
	// Engine names the execution engine every node process runs on — any
	// name registered with internal/engine ("vm", "jit"; default "vm").
	// The built-ins are bit-exact against each other, so the choice only
	// affects speed.
	Engine string
	// Store is the shared checkpoint store (default: a fresh MemStore).
	Store migrate.Store
	// Stdout receives process output (default: discard).
	Stdout io.Writer
	// Fuel bounds each process (default 500M steps).
	Fuel uint64
	// Heap configures per-process heaps.
	Heap heap.Config
	// Quantum is the per-dispatch step granularity (default 20_000): the
	// engine regains control of every node — for kill, quiesce and handoff
	// checks — at least this often.
	Quantum uint64
	// Workers bounds how many node quanta execute concurrently (the
	// paper's testbed had a fixed machine count; -workers models it).
	// 0 means one OS-scheduled goroutine per node, unbounded.
	// A node parked in a border receive does not hold a worker slot, so
	// Workers=1 serializes execution without deadlocking on the exchange.
	Workers int
	// Slots, when set, is a pre-made worker semaphore shared with other
	// engines: a multi-tenant server runs many engines against ONE
	// machine-wide pool, so the aggregate quantum concurrency stays
	// bounded no matter how many runs are in flight. Overrides Workers.
	// The channel's capacity is the pool size; it must be used empty-able
	// (the engine sends to acquire, receives to release).
	Slots chan struct{}
	// Extra, when set, supplies application externs for nodes the engine
	// creates itself (the target of a node://K handoff that was never
	// explicitly started).
	Extra func(node int64) rt.Registry
	// Router, when set, is used instead of a fresh private router. A
	// distributed worker passes a router that hosts this engine's nodes
	// locally and uplinks everything else to the cluster transport.
	Router *msg.Router
	// RemoteHandoff, when set, ships a packed image to another OS process
	// for a migrate("node://K") whose target the router does not host
	// locally. seen is the source's rollback-epoch cursor, which the
	// adopting engine must install (Adopt) so the migrated incarnation has
	// observed exactly the failures its source had.
	RemoteHandoff func(src, dst int64, img *wire.Image, seen int64) error
	// Ckpt selects the checkpoint pipeline mode (full/delta/async) and the
	// delta-chain bound K. The zero value is the classic synchronous
	// full-image path.
	Ckpt ckpt.Options
	// Trace, when set, records lifecycle events on per-node streams
	// ("node/<id>": spec enter/commit/rollback, MSG_ROLL observation,
	// checkpoint capture, handoff, halt) and a control stream ("ctl":
	// quiesce/resume/fail/resurrect/adopt), each stamped with logical time
	// (node, rollback epoch, step count). Nil disables tracing: every
	// event site degrades to one predictable branch with no allocation —
	// the execution hot path itself (RunSteps) is never touched either
	// way.
	Trace *obs.Tracer
}

// Engine is the parallel cluster execution runtime: each simulated node
// runs its process on a dedicated goroutine, dispatched one quantum at a
// time through a bounded worker pool, with per-node lifecycle control
// (start, step, quiesce, fail, resurrect) and migration-aware handoff —
// a process that executes migrate("node://K") is quiesced at its migrate
// point on the source node and resumed as node K on a fresh driver, while
// every other node keeps running.
type Engine struct {
	cfg       EngineConfig
	Router    *msg.Router
	Store     migrate.Store
	committer *ckpt.Committer
	trace     *obs.Tracer
	ctl       *obs.Stream // "ctl" stream; nil when tracing is off

	slots chan struct{} // worker semaphore; nil = unbounded

	mu      sync.Mutex
	drivers map[int64]*driver
	states  map[int64]*ProcState
	extras  map[int64]rt.Registry
	killed  map[int64]bool // failed marks, persisted until Resurrect

	// active counts live driver goroutines. A WaitGroup cannot express
	// this lifecycle: Resurrect and handoff add drivers while Wait is
	// blocked, which is the documented Add-during-Wait race.
	activeMu   sync.Mutex
	activeCond *sync.Cond
	active     int

	handoffMu sync.Mutex // serializes node://K handoffs

	// resurrectHook, when set, runs inside Resurrect after the checkpoint
	// image is unpacked but before the new incarnation's driver starts —
	// the re-kill window fault scripts aim crashresurrect events at.
	resurrectHook atomic.Value // func(node int64, checkpoint string)
}

// lockedWriter serializes process output: every node goroutine shares the
// engine's Stdout.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// NewEngine creates an engine with no nodes.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	} else {
		cfg.Stdout = &lockedWriter{w: cfg.Stdout}
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = 500_000_000
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 20_000
	}
	router := cfg.Router
	if router == nil {
		router = msg.NewRouter()
	}
	if cfg.Ckpt.Trace == nil {
		cfg.Ckpt.Trace = cfg.Trace
	}
	e := &Engine{
		cfg:       cfg,
		Router:    router,
		Store:     cfg.Store,
		committer: ckpt.New(cfg.Store, cfg.Ckpt),
		trace:     cfg.Trace,
		drivers:   make(map[int64]*driver),
		states:    make(map[int64]*ProcState),
		extras:    make(map[int64]rt.Registry),
		killed:    make(map[int64]bool),
	}
	e.activeCond = sync.NewCond(&e.activeMu)
	if e.trace != nil {
		e.ctl = e.trace.Stream("ctl")
		// MSG_ROLL observations land on the observing node's own stream:
		// the hook fires on that node's goroutine, inside its receive.
		tr := e.trace
		router.SetRollHook(func(node, epoch int64) {
			tr.Stream("node/"+strconv.FormatInt(node, 10)).
				Emit(obs.EvMsgRoll, int(node), uint64(epoch), 0, 0, 0, "")
		})
	}
	if cfg.Slots != nil {
		e.slots = cfg.Slots
	} else if cfg.Workers > 0 {
		e.slots = make(chan struct{}, cfg.Workers)
	}
	return e
}

func (e *Engine) acquire() {
	if e.slots != nil {
		e.slots <- struct{}{}
	}
}

func (e *Engine) release() {
	if e.slots != nil {
		<-e.slots
	}
}

// procBox carries the process reference into its block hooks; the process
// only exists after the externs (and therefore the hooks) are built.
type procBox struct{ proc rt.Proc }

// hooksFor returns the worker-pool notifications for a node's receives,
// or nil when the pool is unbounded (a parked goroutine then costs
// nothing anyone else needs).
func (e *Engine) hooksFor(box *procBox) *msg.BlockHooks {
	if e.slots == nil {
		return nil
	}
	return &msg.BlockHooks{
		OnBlock: e.release,
		OnUnblock: func() {
			e.acquire()
			// End the quantum after this receive so a kill or quiesce
			// posted while the node was parked is honoured promptly.
			box.proc.Yield()
		},
	}
}

// nodeExterns binds the router externs (with pool hooks) plus the
// application extras for a node.
func (e *Engine) nodeExterns(node int64, box *procBox, extra rt.Registry) rt.Registry {
	externs := e.Router.ExternsHooked(node, e.hooksFor(box))
	if gc, ok := externs["msg_gc"]; ok && e.cfg.Ckpt.Mode != ckpt.ModeFull {
		// In the incremental modes a node's msg_gc can run ahead of its
		// checkpoint's publication: under write-behind commit the program
		// continues while the commit is in flight, and a zombie that
		// outruns its kill by a quantum checkpoints with the head ref
		// withheld. Pruning the message buffers at the program's call
		// point would strand the resurrection — it resumes from the last
		// *published* checkpoint, which may lie before the announced
		// floor, needing exactly the messages in between. Defer the prune
		// until everything captured so far is durable and published; a
		// floor behind an aborted (never-published) commit is dropped
		// with it.
		externs["msg_gc"] = rt.Extern{
			Sig: gc.Sig,
			Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
				below := a[0].I
				e.committer.AfterOwnerDurable(node, func() {
					e.Router.GC(node, below)
				})
				return heap.IntVal(0), nil
			},
		}
	}
	for n, x := range extra {
		externs[n] = x
	}
	return externs
}

// StartProcess launches prog as the process for `node` on the configured
// execution engine, wired to the router (message passing) and the shared
// store (checkpoints). args are the process arguments (getarg); extra adds
// application externs (the grid harness registers ck_name, for example).
func (e *Engine) StartProcess(node int64, prog *fir.Program, args []int64, extra rt.Registry) error {
	eng, err := engine.Get(e.cfg.Engine)
	if err != nil {
		return err
	}
	p := eng.New(prog, rt.Config{
		Heap:   e.heapConfig(),
		Stdout: e.cfg.Stdout,
		Fuel:   e.cfg.Fuel,
		Name:   fmt.Sprintf("node-%d", node),
		Args:   args,
		Seed:   node,
	})
	box := &procBox{}
	for n, x := range e.nodeExterns(node, box, extra) {
		p.RegisterExtern(n, x.Sig, x.Fn)
	}
	p.SetMigrateHandler(e.migrateHandler(node))
	e.observeSpec(node, p)
	if err := p.Start(); err != nil {
		return err
	}
	box.proc = p
	e.mu.Lock()
	e.extras[node] = extra
	e.mu.Unlock()
	e.startDriver(node, p, 0)
	return nil
}

// extraFor returns the remembered (or factory-supplied) application
// externs for a node.
func (e *Engine) extraFor(node int64) rt.Registry {
	e.mu.Lock()
	extra, ok := e.extras[node]
	e.mu.Unlock()
	if !ok && e.cfg.Extra != nil {
		extra = e.cfg.Extra(node)
	}
	return extra
}

// unpackAs reconstructs a process image as the process for `node`, on the
// engine's configured execution backend.
func (e *Engine) unpackAs(node int64, img *wire.Image, extra rt.Registry, tag string) (rt.Proc, error) {
	box := &procBox{}
	proc, _, err := migrate.Unpack(img, migrate.Options{
		Engine:  e.cfg.Engine,
		Externs: e.nodeExterns(node, box, extra),
		Config: rt.Config{
			Heap:   e.heapConfig(),
			Stdout: e.cfg.Stdout,
			Fuel:   e.cfg.Fuel,
			Name:   fmt.Sprintf("node-%d(%s)", node, tag),
			Args:   nil, // carried by the image
		},
	})
	if err != nil {
		return nil, err
	}
	proc.SetMigrateHandler(e.migrateHandler(node))
	e.observeSpec(node, proc)
	box.proc = proc
	return proc, nil
}

// heapConfig returns the per-process heap configuration: the engine's,
// with dirty tracking enabled whenever the incremental checkpoint
// pipeline may capture deltas.
func (e *Engine) heapConfig() heap.Config {
	hc := e.cfg.Heap
	if e.cfg.Ckpt.Mode != ckpt.ModeFull {
		hc.TrackDirty = true
	}
	return hc
}

// CkptStats returns the checkpoint pipeline counters.
func (e *Engine) CkptStats() ckpt.Stats { return e.committer.Stats() }

// stream returns the trace stream for a node, nil when tracing is off.
func (e *Engine) stream(node int64) *obs.Stream {
	if e.trace == nil {
		return nil
	}
	return e.trace.Stream("node/" + strconv.FormatInt(node, 10))
}

// stepsOf reads a node's step counter. Only safe from the node's own
// execution goroutine (a migrate handler or extern it is running) or
// while it is provably parked.
func (e *Engine) stepsOf(node int64) uint64 {
	if d := e.driver(node); d != nil {
		return d.proc.Steps()
	}
	return 0
}

// observeSpec wires a process's speculation lifecycle onto its node trace
// stream. The callbacks run on the node's own goroutine, so reading the
// step counter there is race-free.
func (e *Engine) observeSpec(node int64, p rt.Proc) {
	if e.trace == nil {
		return
	}
	s := e.stream(node)
	seen := func() uint64 { return uint64(e.Router.Seen(node)) }
	p.Spec().SetObserver(spec.Observer{
		Enter: func(ord int, id int64) {
			s.Emit(obs.EvSpecEnter, int(node), seen(), p.Steps(), int64(ord), id, "")
		},
		Commit: func(ord int, id int64) {
			s.Emit(obs.EvSpecCommit, int(node), seen(), p.Steps(), int64(ord), id, "")
		},
		Rollback: func(ord int, id int64, discarded int) {
			s.Emit(obs.EvSpecRollback, int(node), seen(), p.Steps(), int64(ord), int64(discarded), "")
		},
	})
}

// RegisterMetrics registers this engine's per-package Stats surfaces as
// snapshot sources on reg: "msg.*" (router), "ckpt.*" (checkpoint
// pipeline), "spec.*" (speculation counters aggregated across live
// node processes — race-free because the spec counters are atomics) and
// "engine.*" (execution-engine artifact-cache hit/miss/evict counters).
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.AddSource("engine", engine.CacheStats)
	reg.AddSource("msg", func() map[string]uint64 {
		s := e.Router.Stats()
		return map[string]uint64{
			"sends": s.Sends, "recvs": s.Recvs, "rolls": s.Rolls,
			"failures": s.Failures, "gced": s.GCed, "words_sent": s.WordsSent,
		}
	})
	reg.AddSource("ckpt", func() map[string]uint64 {
		s := e.committer.Stats()
		return map[string]uint64{
			"checkpoints": s.Checkpoints, "fulls": s.Fulls, "deltas": s.Deltas,
			"bytes_written": s.BytesWritten, "code_objects": s.CodeObjects,
			"code_bytes": s.CodeBytes, "pause_ns": s.PauseNs,
			"capture_ns": s.CaptureNs, "commit_ns": s.CommitNs,
			"aborted": s.Aborted, "recoveries": s.Recoveries,
			"recovery_ns": s.RecoveryNs, "pruned": s.Pruned,
			"prune_failures": s.PruneFailures,
		}
	})
	reg.AddSource("spec", func() map[string]uint64 {
		e.mu.Lock()
		procs := make([]rt.Proc, 0, len(e.drivers))
		for _, d := range e.drivers {
			procs = append(procs, d.proc)
		}
		e.mu.Unlock()
		var enters, commits, rollbacks, discarded, maxDepth uint64
		for _, p := range procs {
			st := p.Spec().Stats()
			enters += st.Enters
			commits += st.Commits
			rollbacks += st.Rollbacks
			discarded += st.LevelsDiscarded
			if d := uint64(st.MaxDepth); d > maxDepth {
				maxDepth = d
			}
		}
		return map[string]uint64{
			"enters": enters, "commits": commits, "rollbacks": rollbacks,
			"levels_discarded": discarded, "max_depth": maxDepth,
		}
	})
}

// migrateHandler routes migrate targets: "node://K" is an in-engine
// handoff to another simulated node; checkpoint:// goes through the
// engine's checkpoint pipeline (full, delta or async per EngineConfig);
// everything else (suspend://, migrate://…) goes through the standard
// Migrator against the shared store.
func (e *Engine) migrateHandler(node int64) rt.MigrateHandler {
	mig := &migrate.Migrator{Store: e.Store}
	return func(req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
		if rest, ok := strings.CutPrefix(req.Target, "node://"); ok {
			dst, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return rt.OutcomeContinueLocal, fmt.Errorf("cluster: bad node target %q", req.Target)
			}
			return e.handoff(node, dst, req)
		}
		if proto, addr, err := migrate.ParseTarget(req.Target); err == nil && proto == migrate.ProtoCheckpoint {
			s := e.stream(node)
			var t0 time.Time
			if s != nil {
				t0 = time.Now()
			}
			if err := e.committer.Checkpoint(req, addr, node); err != nil {
				return rt.OutcomeContinueLocal, err
			}
			if s != nil {
				// B is the checkpoint pause as the node experienced it:
				// capture+commit in the synchronous modes, capture only
				// under write-behind. We run on the node's goroutine here.
				s.Emit(obs.EvCkptCapture, int(node), uint64(e.Router.Seen(node)),
					e.stepsOf(node), 0, time.Since(t0).Nanoseconds(), addr)
			}
			return rt.OutcomeContinueLocal, nil
		}
		return mig.Handle(req)
	}
}

// handoff performs a node-to-node migration without stopping the cluster:
// the source process is already quiesced (it sits at its migrate
// instruction, on its own driver goroutine), so pack, unpack and resume
// run while every other node continues. On any error the process simply
// continues on the source node (§4.2.1).
func (e *Engine) handoff(src, dst int64, req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
	if dst == src {
		return rt.OutcomeContinueLocal, nil
	}
	// The process leaves its node only once every checkpoint it captured
	// there is durable. A kill keyed on one of them (a fault script's
	// count of head Puts) then lands before the process has left, never
	// on a node that gave it away: resurrecting that node from its last
	// checkpoint would start a stale second copy of the process. A kill
	// that lands here marks the source failed, and the handoff is refused:
	// below in process, at the hub across processes.
	e.committer.DrainOwner(src)
	if s := e.stream(src); s != nil {
		// On the source node's goroutine, at its migrate instruction.
		s.Emit(obs.EvHandoff, int(src), uint64(e.Router.Seen(src)),
			e.stepsOf(src), dst, 0, "")
	}
	if e.cfg.RemoteHandoff != nil && !e.Router.Local(dst) {
		// The target node lives in another OS process: pack here, ship the
		// image (plus the source's epoch cursor) through the transport, and
		// terminate locally only once the remote engine has adopted it.
		// Deliberately NOT under handoffMu: the ship blocks on a network
		// round trip, and two engines migrating into each other would
		// deadlock if each held its lock while waiting for the other's
		// adoption (which takes handoffMu in Adopt).
		e.mu.Lock()
		srcFailed := e.killed[src]
		e.mu.Unlock()
		if srcFailed {
			return e.refuseFailedSource(src)
		}
		img, err := migrate.Pack(req.Rt, req.Label, req.FnIndex, req.Args)
		if err != nil {
			return rt.OutcomeContinueLocal, err
		}
		if err := e.cfg.RemoteHandoff(src, dst, img, e.Router.Seen(src)); err != nil {
			return rt.OutcomeContinueLocal, err
		}
		return rt.OutcomeMigrated, nil
	}
	e.handoffMu.Lock()
	defer e.handoffMu.Unlock()
	e.mu.Lock()
	d := e.drivers[dst]
	dstFailed := e.killed[dst]
	srcFailed := e.killed[src]
	e.mu.Unlock()
	if srcFailed {
		return e.refuseFailedSource(src)
	}
	if dstFailed {
		return rt.OutcomeContinueLocal, fmt.Errorf("cluster: node %d is failed", dst)
	}
	if d != nil && !d.hasExited() {
		return rt.OutcomeContinueLocal, fmt.Errorf("cluster: node %d already has a live process", dst)
	}
	img, err := migrate.Pack(req.Rt, req.Label, req.FnIndex, req.Args)
	if err != nil {
		return rt.OutcomeContinueLocal, err
	}
	extra := e.extraFor(dst)
	proc, err := e.unpackAs(dst, img, extra, "m")
	if err != nil {
		return rt.OutcomeContinueLocal, err
	}
	e.mu.Lock()
	e.extras[dst] = extra
	e.mu.Unlock()
	// The incoming incarnation has observed exactly the rollback epochs
	// its source had.
	e.Router.InheritSeen(src, dst)
	e.ctl.Emit(obs.EvAdopt, int(dst), uint64(e.Router.Seen(dst)), 0, src, 0, "")
	e.startDriver(dst, proc, 0)
	return rt.OutcomeMigrated, nil
}

// refuseFailedSource refuses the handoff of a process whose node failed
// while it was migrating out: its state must die with the node (survivors
// have already rolled back for it; only a checkpoint may revive it). The
// process continues locally only to the end of the migrate instruction:
// the quantum ends there, so the driver delivers the kill at once. Left
// to run out its quantum, the zombie could park in a receive no live
// node will ever answer, and Resurrect, which waits for the failed
// incarnation to stop, would wait for good. It runs on the source's own
// driver goroutine, the only one that may ask its process to yield.
func (e *Engine) refuseFailedSource(src int64) (rt.MigrateOutcome, error) {
	if d := e.driver(src); d != nil {
		d.proc.Yield()
	}
	return rt.OutcomeContinueLocal, fmt.Errorf("cluster: node %d is failed; its state cannot migrate out", src)
}

// Adopt installs an inbound migrated image as the process for `node` —
// the receiving half of a cross-process node://K handoff. seen is the
// source incarnation's rollback-epoch cursor, installed before the driver
// starts so the adopted process neither re-observes a rollback it already
// joined nor misses one it had yet to see.
//
// The process is installed parked and runs once the returned start is
// called. The transport acknowledges the handoff in between, so that the
// source and the hub know of the adoption before the adopted process can
// act on it: its first checkpoint may be the one a fault script kills this
// worker on, and a worker killed with the acknowledgement unsent leaves
// the source running a second copy of the process.
func (e *Engine) Adopt(node int64, img *wire.Image, seen int64, extra rt.Registry) (start func(), err error) {
	e.handoffMu.Lock()
	defer e.handoffMu.Unlock()
	e.mu.Lock()
	d := e.drivers[node]
	failed := e.killed[node]
	e.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("cluster: node %d is failed", node)
	}
	if d != nil && !d.hasExited() {
		return nil, fmt.Errorf("cluster: node %d already has a live process", node)
	}
	if extra == nil {
		extra = e.extraFor(node)
	}
	proc, err := e.unpackAs(node, img, extra, "m")
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.extras[node] = extra
	e.mu.Unlock()
	e.Router.SetSeen(node, seen)
	e.ctl.Emit(obs.EvAdopt, int(node), uint64(seen), 0, -1, 0, "")
	d = e.startDriver(node, proc, 1)
	return func() {
		d.mu.Lock()
		d.pauses--
		d.cond.Broadcast()
		d.mu.Unlock()
	}, nil
}

// driver runs one node's process: a goroutine stepping the process one
// quantum at a time through the worker pool, with park points for
// quiesce and kill between quanta.
type driver struct {
	eng  *Engine
	node int64
	proc rt.Proc

	mu       sync.Mutex
	cond     *sync.Cond
	pauses   int  // outstanding Quiesce requests
	parked   bool // true while waiting out a quiesce
	stepping bool // a Step() is executing the process synchronously
	killed   bool
	exited   bool
	done     chan struct{}
}

func (d *driver) hasExited() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.exited
}

// startDriver registers and launches a (new incarnation of a) node.
// startDriver starts the goroutine that runs proc as node's process, with
// `pauses` quiesce requests already outstanding (0 runs it at once).
func (e *Engine) startDriver(node int64, proc rt.Proc, pauses int) *driver {
	d := &driver{eng: e, node: node, proc: proc, pauses: pauses, done: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	e.mu.Lock()
	// A node failed before (or while) its process started stays failed
	// until Resurrect: the new incarnation is dead on arrival.
	d.killed = e.killed[node]
	e.drivers[node] = d
	e.states[node] = &ProcState{Node: node, Status: rt.StatusRunning}
	e.mu.Unlock()
	e.activeMu.Lock()
	e.active++
	e.activeMu.Unlock()
	go d.loop()
	return d
}

func (d *driver) loop() {
	defer func() {
		d.eng.activeMu.Lock()
		d.eng.active--
		if d.eng.active == 0 {
			d.eng.activeCond.Broadcast()
		}
		d.eng.activeMu.Unlock()
	}()
	defer func() {
		d.mu.Lock()
		d.exited = true
		d.cond.Broadcast()
		d.mu.Unlock()
		close(d.done)
	}()
	for {
		d.mu.Lock()
		// Stay parked while a Step() is executing the process, even if a
		// kill arrives mid-step: the kill is handled once Step returns,
		// never concurrently with it.
		for d.stepping || (d.pauses > 0 && !d.killed) {
			d.parked = true
			d.cond.Broadcast()
			d.cond.Wait()
		}
		d.parked = false
		killed := d.killed
		d.mu.Unlock()
		if killed {
			d.finish(true)
			return
		}
		if d.proc.Status() != rt.StatusRunning {
			// A Step() during a quiesce may have finished the process.
			d.finish(false)
			return
		}
		d.eng.acquire()
		st, _ := d.proc.RunSteps(d.eng.cfg.Quantum)
		d.eng.release()
		if st != rt.StatusRunning {
			d.finish(false)
			return
		}
	}
}

// finish records the incarnation's terminal state (halted, killed or
// migrated away) and releases its heap, so the next incarnation started,
// restored or migrated in takes the arena. Nothing reads the heap after
// record: record has drained the node's commits, a full checkpoint's
// view dies before its pause ends, and delta, async and handoff captures
// are copies.
func (d *driver) finish(killed bool) {
	d.eng.record(d.node, d.proc, killed)
	d.proc.Heap().Release()
}

func (e *Engine) record(node int64, p rt.Proc, killed bool) {
	// Flush the node's async checkpoint commits before its terminal state
	// becomes visible: anything keyed on checkpoint durability (fault
	// scripts, benchmarks) must observe every checkpoint the node captured
	// no later than its result. A failed node's queued commits were
	// discarded by AbortOwner, so this never stalls a kill.
	e.committer.DrainOwner(node)
	if s := e.stream(node); s != nil {
		// On the exiting driver's own goroutine: the final state of this
		// incarnation, with A = halt code and B = 1 when it died to a kill.
		var k int64
		if killed {
			k = 1
		}
		s.Emit(obs.EvHalt, int(node), uint64(e.Router.Seen(node)),
			p.Steps(), p.HaltCode(), k, "")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.states[node] = &ProcState{
		Node: node, Status: p.Status(), Halt: p.HaltCode(),
		Err: p.Err(), Killed: killed, Steps: p.Steps(),
	}
}

func (e *Engine) driver(node int64) *driver {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drivers[node]
}

// Fail kills the process on a node (it stops at its next quantum boundary
// or pending receive) and notifies every other node through the router's
// rollback epoch. The failed mark persists until Resurrect: failing a
// node whose process has not started yet kills that process on arrival.
func (e *Engine) Fail(node int64) {
	e.mu.Lock()
	e.killed[node] = true
	d := e.drivers[node]
	e.mu.Unlock()
	if d != nil {
		d.mu.Lock()
		d.killed = true
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	// Durability watermark: commits the failed node still has in flight
	// must not become the checkpoint its resurrection resumes from — the
	// committer discards queued commits and withholds the head ref of an
	// in-flight one.
	e.committer.AbortOwner(node)
	e.Router.Fail(node)
	// Emitted after the epoch bump so the event carries the epoch this
	// failure created — survivors' msg.roll events reference it.
	e.ctl.Emit(obs.EvFail, int(node), uint64(e.Router.Epoch()), 0, 0, 0, "")
}

// Quiesce parks a node's driver at its next quantum boundary and returns
// once it is parked; the process makes no further progress until Resume.
// Quiesce calls nest. A node blocked in a border receive parks only after
// the receive returns (delivery, rollback epoch, or router close).
func (e *Engine) Quiesce(node int64) error {
	d := e.driver(node)
	if d == nil {
		return fmt.Errorf("cluster: node %d has no process", node)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pauses++
	for !d.parked && !d.exited {
		d.cond.Wait()
	}
	if d.exited {
		d.pauses--
		return fmt.Errorf("cluster: node %d terminated before quiescing", node)
	}
	if e.ctl != nil {
		// The driver is parked under d.mu, so its step counter is stable.
		e.ctl.Emit(obs.EvQuiesce, int(node), uint64(e.Router.Seen(node)),
			d.proc.Steps(), 0, 0, "")
	}
	return nil
}

// Resume releases one Quiesce on a node.
func (e *Engine) Resume(node int64) error {
	d := e.driver(node)
	if d == nil {
		return fmt.Errorf("cluster: node %d has no process", node)
	}
	d.mu.Lock()
	if e.ctl != nil {
		var step uint64
		if d.parked {
			step = d.proc.Steps()
		}
		e.ctl.Emit(obs.EvResume, int(node), uint64(e.Router.Seen(node)), step, 0, 0, "")
	}
	if d.pauses > 0 {
		d.pauses--
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return nil
}

// Step synchronously runs up to `quanta` quanta of a quiesced node's
// process on the calling goroutine (through the worker pool) and returns
// the resulting status — single-stepped deterministic execution for tests
// and debugging. The node must be quiesced.
func (e *Engine) Step(node int64, quanta int) (rt.Status, error) {
	d := e.driver(node)
	if d == nil {
		return 0, fmt.Errorf("cluster: node %d has no process", node)
	}
	d.mu.Lock()
	if !d.parked || d.stepping {
		d.mu.Unlock()
		return 0, fmt.Errorf("cluster: Step requires node %d to be quiesced (and not already stepping)", node)
	}
	// While stepping is set the driver stays parked even if a kill or
	// Resume lands mid-step, so the process is never run concurrently.
	d.stepping = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.stepping = false
		d.cond.Broadcast()
		d.mu.Unlock()
	}()
	st := d.proc.Status()
	for i := 0; i < quanta && st == rt.StatusRunning; i++ {
		e.acquire()
		var err error
		st, err = d.proc.RunSteps(e.cfg.Quantum)
		e.release()
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// SetResurrectWindowHook installs fn, invoked on every Resurrect after the
// checkpoint image is unpacked and before the new incarnation starts. A
// hook calling Fail(node) in that window — a failure landing during the
// node's own resurrection — leaves the fresh incarnation dead on arrival,
// to be revived by a later Resurrect. Pass nil to clear.
func (e *Engine) SetResurrectWindowHook(fn func(node int64, checkpoint string)) {
	e.resurrectHook.Store(&fn)
}

// Resurrect loads a checkpoint from the shared store and revives it as the
// process for `node` — on a "different machine", which in this simulation
// means a fresh driver goroutine and heap. The router clears the node's
// failed mark; survivors have already rolled back to the matching
// speculation boundary.
func (e *Engine) Resurrect(node int64, checkpoint string, extra rt.Registry) error {
	// Wait for the failed incarnation's driver to observe the kill and
	// stop; resurrecting while a zombie of the old incarnation still runs
	// would give the node two processes.
	if d := e.driver(node); d != nil {
		t := time.NewTimer(30 * time.Second)
		select {
		case <-d.done:
			t.Stop()
		case <-t.C:
			return fmt.Errorf("cluster: node %d did not stop within 30s of failure", node)
		}
	}
	// Wait out the failed incarnation's background commits so the head
	// name read below is stable, then resolve it (transparently across a
	// delta chain) to the last durable checkpoint.
	e.committer.DrainOwner(node)
	// Clear the failed mark before the restore work begins, not after: a
	// new Fail landing anywhere in the resurrection window must mark THIS
	// incarnation dead (startDriver re-reads the mark), not be erased by a
	// clear that happens later.
	e.mu.Lock()
	delete(e.killed, node)
	e.mu.Unlock()
	t0 := time.Now()
	img, err := migrate.FetchImage(e.Store, checkpoint)
	if err != nil {
		return err
	}
	if extra == nil {
		extra = e.extraFor(node)
	}
	proc, err := e.unpackAs(node, img, extra, "r")
	if err != nil {
		return err
	}
	e.committer.RecordRecovery(time.Since(t0))
	e.committer.ResumeOwner(node)
	e.ctl.Emit(obs.EvResurrect, int(node), uint64(e.Router.Epoch()), 0,
		0, time.Since(t0).Nanoseconds(), checkpoint)
	if p := e.resurrectHook.Load(); p != nil {
		if fn := *p.(*func(node int64, checkpoint string)); fn != nil {
			fn(node, checkpoint)
		}
	}
	e.mu.Lock()
	e.extras[node] = extra // remembered for a later handoff or resurrect
	rekilled := e.killed[node]
	e.mu.Unlock()
	if !rekilled {
		// A node re-failed during its own resurrection keeps its router
		// failed mark; the next Resurrect restores it.
		e.Router.Restore(node)
	}
	e.startDriver(node, proc, 0)
	return nil
}

// Wait blocks until every tracked process reaches a terminal state or the
// timeout expires; it returns the final states by node. Quiesced nodes
// never terminate — Resume them first.
func (e *Engine) Wait(timeout time.Duration) (map[int64]*ProcState, error) {
	done := e.idleChan()
	// A stopped timer, not time.After: under pre-1.23 timer semantics
	// an armed timer stays in the runtime's timer heap until it fires,
	// long after Wait returns.
	t := time.NewTimer(timeout)
	select {
	case <-done:
		t.Stop()
	case <-t.C:
		e.Router.Close() // release blocked receivers
		t.Reset(5 * time.Second)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
			return e.snapshot(), fmt.Errorf("cluster: processes still running after router close")
		}
		return e.snapshot(), fmt.Errorf("cluster: timeout after %s", timeout)
	}
	return e.snapshot(), nil
}

// idleChan returns a channel closed once no driver goroutine is live.
// The watcher goroutine persists until that happens; a Wait timeout
// closes the router, which drives every process (and so the watcher) out.
func (e *Engine) idleChan() chan struct{} {
	done := make(chan struct{})
	go func() {
		e.activeMu.Lock()
		for e.active > 0 {
			e.activeCond.Wait()
		}
		e.activeMu.Unlock()
		close(done)
	}()
	return done
}

func (e *Engine) snapshot() map[int64]*ProcState {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int64]*ProcState, len(e.states))
	for k, v := range e.states {
		cp := *v
		out[k] = &cp
	}
	return out
}

// Close shuts the router down, releasing any blocked process.
func (e *Engine) Close() { e.Router.Close() }
