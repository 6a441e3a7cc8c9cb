// Package serve is the multi-tenant serving layer: a long-lived daemon
// (cmd/mojd) that accepts workload submissions over the wire and
// multiplexes many concurrent cluster.Engine runs over ONE shared
// bounded worker pool and ONE shared checkpoint store. Each accepted run
// executes to completion, is verified bit-exactly against the workload's
// sequential reference, and answers with its result; an overloaded
// daemon refuses new submissions explicitly (never hangs them, never
// drops them silently).
//
// Isolation is by namespace, not by copy: run N's checkpoint chains live
// under "rN." inside the shared store, so hundreds of tenants running
// the same app (whose nodes all checkpoint under the same names) never
// collide, and a finished run's namespace is swept from the store with
// explicit error accounting. Programs compile once per distinct
// (app, shape) and are shared by pointer, so the execution-engine
// artifact cache amortizes compilation across tenants.
package serve

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/frame"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Config tunes the daemon.
type Config struct {
	// PoolWorkers sizes the one shared worker pool: the maximum number of
	// node quanta executing concurrently across ALL runs (default:
	// GOMAXPROCS). Individual runs' Params.Workers is ignored.
	PoolWorkers int
	// MaxRuns bounds how many engines execute concurrently (default 16).
	MaxRuns int
	// QueueDepth bounds submissions waiting for a run slot, beyond the
	// MaxRuns already running (default 64). A full queue rejects.
	QueueDepth int
	// RunTimeout bounds each accepted run (default 2m).
	RunTimeout time.Duration
	// IdleTimeout bounds how long a connection may stall on a read or a
	// write (default 60s). A submission waiting for its result is not
	// idle: the deadline is pushed forward before each read and write.
	IdleTimeout time.Duration
	// Store is the shared checkpoint store (default: one MemStore for
	// the daemon's lifetime).
	Store migrate.Store
	// Stdout receives process output from every run (default: discard).
	Stdout io.Writer
	// Logf, when set, receives daemon events (accepts, rejects, gc
	// failures).
	Logf func(format string, args ...any)
	// Registry, when set, is the daemon's metrics registry; nil makes a
	// private one. Either way the daemon registers its admission counters
	// as the "serve" source and feeds per-tenant queue-wait / run-duration
	// histograms, all exposed over the 'O' snapshot RPC.
	Registry *obs.Registry
	// Trace, when set, is the daemon's event tracer; nil makes a private
	// one. Admission lifecycle events (admit, reject, start, verify,
	// sweep) land on the "serve" stream and drain over the 'D' RPC.
	Trace *obs.Tracer
}

// job is one accepted submission waiting for (or on) a runner.
type job struct {
	id       uint64
	req      SubmitRequest
	w        workload.Workload
	params   workload.Params
	script   *workload.FaultScript
	admitted time.Time     // when admit enqueued it
	wait     time.Duration // queue wait, stamped by the runner
	done     chan RunReply
}

// Server is the serving daemon.
type Server struct {
	cfg   Config
	fs    *frame.Server
	slots chan struct{} // THE worker pool, shared by every engine
	store migrate.Store
	queue chan *job

	reg    *obs.Registry
	trace  *obs.Tracer
	ev     *obs.Stream    // the "serve" admission-lifecycle stream
	qwAll  *obs.Histogram // daemon-wide queue wait (ns)
	runAll *obs.Histogram // daemon-wide run duration (ns)

	mu      sync.Mutex
	closing bool
	nextID  uint64
	running int
	m       Metrics
	tenants map[string]*TenantMetrics

	runWg sync.WaitGroup
}

// NewServer wraps a listener; call Serve to accept.
func NewServer(l net.Listener, cfg Config) *Server {
	if cfg.PoolWorkers <= 0 {
		cfg.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 2 * time.Minute
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.Store == nil {
		cfg.Store = cluster.NewMemStore()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.NewTracer(0)
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.PoolWorkers),
		store:   cfg.Store,
		queue:   make(chan *job, cfg.QueueDepth),
		tenants: make(map[string]*TenantMetrics),
		reg:     cfg.Registry,
		trace:   cfg.Trace,
	}
	s.fs = frame.NewServer(l, cfg.IdleTimeout, s.handle)
	s.ev = s.trace.Stream("serve")
	s.qwAll = s.reg.Histogram("serve.queue_wait_ns")
	s.runAll = s.reg.Histogram("serve.run_ns")
	s.reg.AddSource("serve", func() map[string]uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return map[string]uint64{
			"accepted":    s.m.Accepted,
			"rejected":    s.m.Rejected,
			"completed":   s.m.Completed,
			"failed":      s.m.Failed,
			"rollbacks":   s.m.Rollbacks,
			"checkpoints": s.m.Checkpoints,
			"ckpt_bytes":  s.m.CkptBytes,
			"gc_objects":  s.m.GCObjects,
			"gc_failures": s.m.GCFailures,
			"queue_depth": uint64(len(s.queue)),
			"running":     uint64(s.running),
		}
	})
	for i := 0; i < cfg.MaxRuns; i++ {
		s.runWg.Add(1)
		go s.runner()
	}
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.fs.Addr() }

// Registry returns the daemon's metrics registry (the 'O' RPC's source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the daemon's event tracer (the 'D' RPC's source).
func (s *Server) Tracer() *obs.Tracer { return s.trace }

// Serve accepts connections until the listener closes.
func (s *Server) Serve() error { return s.fs.Serve() }

// Close stops accepting, waits for in-flight connections (and therefore
// the runs they are waiting on), then stops the runners.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	err := s.fs.Shutdown()
	close(s.queue)
	s.runWg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) handle(conn net.Conn) {
	kind, body, err := readMsg(conn)
	if err != nil {
		return
	}
	switch kind {
	case frameSubmit:
		s.handleSubmit(conn, body)
	case frameMetrics:
		_ = writeMsg(conn, frameStats, s.Snapshot())
	case frameObs:
		_ = writeMsg(conn, frameObsReply, s.reg.Snapshot())
	case frameTrace:
		_ = writeMsg(conn, frameTraceReply, s.trace.Drain())
	default:
		_ = writeMsg(conn, frameReject, rejectReply{Reason: fmt.Sprintf("unknown request kind %q", kind)})
	}
}

func (s *Server) handleSubmit(conn net.Conn, body []byte) {
	j, rej := s.admit(body)
	if rej != nil {
		_ = writeMsg(conn, frameReject, *rej)
		return
	}
	_ = writeMsg(conn, frameResult, <-j.done)
}

// admit validates and enqueues one submission. It never blocks: a full
// queue is an immediate, explicit throttle.
func (s *Server) admit(body []byte) (*job, *rejectReply) {
	var req SubmitRequest
	reject := func(throttled bool, format string, args ...any) (*job, *rejectReply) {
		reason := fmt.Sprintf(format, args...)
		s.mu.Lock()
		s.m.Rejected++
		s.tenantLocked(req.Tenant).Rejected++
		s.mu.Unlock()
		var thr int64
		if throttled {
			thr = 1
		}
		s.ev.Emit(obs.EvServeReject, 0, 0, 0, thr, 0, req.Tenant+"/"+req.App)
		s.logf("reject tenant=%q app=%q throttled=%v: %s", req.Tenant, req.App, throttled, reason)
		return nil, &rejectReply{Throttled: throttled, Reason: reason}
	}
	if err := unmarshalStrict(body, &req); err != nil {
		return reject(false, "bad submit frame: %v", err)
	}
	w, err := workload.Get(req.App)
	if err != nil {
		return reject(false, "%v", err)
	}
	params, err := workload.Normalize(w, req.Params)
	if err != nil {
		return reject(false, "invalid parameters: %v", err)
	}
	var script *workload.FaultScript
	if req.Script != "" {
		if script, err = workload.ParseScriptString(req.Script); err != nil {
			return reject(false, "invalid fault script: %v", err)
		}
	}

	j := &job{req: req, w: w, params: params, script: script, done: make(chan RunReply, 1)}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return reject(false, "server shutting down")
	}
	s.nextID++
	j.id = s.nextID
	j.admitted = time.Now()
	select {
	case s.queue <- j:
		s.m.Accepted++
		s.tenantLocked(req.Tenant).Submitted++
		depth := len(s.queue)
		s.mu.Unlock()
		s.ev.Emit(obs.EvServeAdmit, int(j.id), 0, 0, int64(depth), 0, req.Tenant+"/"+req.App)
		return j, nil
	default:
		s.mu.Unlock()
		return reject(true, "queue full (%d queued, %d running)", s.cfg.QueueDepth, s.cfg.MaxRuns)
	}
}

// tenantLocked returns (creating if needed) a tenant's counter block.
// Callers hold s.mu.
func (s *Server) tenantLocked(tenant string) *TenantMetrics {
	tm := s.tenants[tenant]
	if tm == nil {
		tm = &TenantMetrics{}
		s.tenants[tenant] = tm
	}
	return tm
}

// tenantHists returns a tenant's registry-backed latency histograms
// (queue wait, run duration) — get-or-create, so the runner path and the
// Snapshot path always see the same instruments.
func (s *Server) tenantHists(tenant string) (queueWait, runDur *obs.Histogram) {
	return s.reg.Histogram("serve.tenant." + tenant + ".queue_wait_ns"),
		s.reg.Histogram("serve.tenant." + tenant + ".run_ns")
}

// runner executes queued jobs until the queue closes. MaxRuns runners
// bound how many engines are live at once; the engines themselves share
// s.slots, so aggregate quantum concurrency never exceeds PoolWorkers no
// matter how the runs overlap.
func (s *Server) runner() {
	defer s.runWg.Done()
	for j := range s.queue {
		j.wait = time.Since(j.admitted)
		qw, _ := s.tenantHists(j.req.Tenant)
		qw.Record(j.wait.Nanoseconds())
		s.qwAll.Record(j.wait.Nanoseconds())
		s.ev.Emit(obs.EvServeStart, int(j.id), 0, 0, j.wait.Nanoseconds(), 0, j.req.Tenant+"/"+j.req.App)
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		j.done <- s.execute(j)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// execute runs one admitted job to completion and sweeps its checkpoint
// namespace from the shared store.
func (s *Server) execute(j *job) RunReply {
	reply := RunReply{ID: j.id, QueueWaitNs: j.wait.Nanoseconds()}
	store := prefixStore{prefix: runPrefix(j.id), inner: s.store}
	// No RunConfig.Program: the run takes workload.Compile's program for
	// its shape, so tenants submitting the same problem share one
	// *fir.Program and, through its identity, one compiled artifact per
	// engine.
	res, err := workload.RunVerified(j.w, j.params, workload.RunConfig{
		Script:  j.script,
		Timeout: s.cfg.RunTimeout,
		Stdout:  s.cfg.Stdout,
		Store:   store,
		Slots:   s.slots,
	})
	if res != nil {
		reply.ElapsedNs = res.Elapsed.Nanoseconds()
		reply.Rollbacks = res.Rollbacks
		reply.Resurrections = res.Resurrections
		reply.Checkpoints = res.Ckpt.Checkpoints
		reply.CkptBytes = res.Ckpt.BytesWritten
	}
	reply.Verified = err == nil
	if err != nil {
		reply.Err = err.Error()
	}
	if reply.ElapsedNs > 0 {
		_, rd := s.tenantHists(j.req.Tenant)
		rd.Record(reply.ElapsedNs)
		s.runAll.Record(reply.ElapsedNs)
	}
	var ok int64
	if reply.Verified {
		ok = 1
	}
	s.ev.Emit(obs.EvServeVerify, int(j.id), 0, 0, ok, reply.ElapsedNs, j.req.Tenant+"/"+j.req.App)

	deleted, failed, gcErr := store.sweep()
	if gcErr != nil {
		s.logf("run %d: checkpoint gc: %v (%d more failures)", j.id, gcErr, failed-1)
	}
	s.ev.Emit(obs.EvServeSweep, int(j.id), 0, 0, int64(deleted), int64(failed), "")

	s.mu.Lock()
	tm := s.tenantLocked(j.req.Tenant)
	if err == nil {
		s.m.Completed++
		tm.Completed++
	} else {
		s.m.Failed++
		tm.Failed++
	}
	s.m.Rollbacks += reply.Rollbacks
	s.m.Checkpoints += reply.Checkpoints
	s.m.CkptBytes += reply.CkptBytes
	tm.Rollbacks += reply.Rollbacks
	tm.Checkpoints += reply.Checkpoints
	tm.CkptBytes += reply.CkptBytes
	s.m.GCObjects += uint64(deleted)
	s.m.GCFailures += uint64(failed)
	s.mu.Unlock()
	return reply
}

// Snapshot returns a copy of the daemon metrics.
func (s *Server) Snapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.QueueDepth = len(s.queue)
	m.Running = s.running
	m.QueueCap = s.cfg.QueueDepth
	m.MaxRuns = s.cfg.MaxRuns
	m.PoolWorkers = s.cfg.PoolWorkers
	m.QueueWait = s.qwAll.Summary()
	m.RunDuration = s.runAll.Summary()
	m.Tenants = make(map[string]TenantMetrics, len(s.tenants))
	for name, tm := range s.tenants {
		cp := *tm
		qw, rd := s.tenantHists(name)
		cp.QueueWait = qw.Summary()
		cp.RunDuration = rd.Summary()
		m.Tenants[name] = cp
	}
	return m
}
