// Package store is the production checkpoint store tier: pluggable
// backends behind the four-method migrate.Store interface (Put, Get,
// List, Delete), selected by a URL-style spec string, and the one store
// wire protocol (remote.go) with its one server and client: cmd/mojstored
// runs the Server, every transport hub runs one beside its message link,
// and distributed workers checkpoint through a Remote. It layers, from
// the inside out:
//
//	backend   — where bytes live: in-memory (mem), a directory
//	            (dir:PATH), a directory with per-chunk compression at
//	            rest (zdir:PATH), a remote store server (tcp:ADDR), or
//	            an N-way replicated fan-out over any of those
//	            (repl:N,SPEC,...) that acknowledges writes only at
//	            quorum and read-repairs stale replicas on Get;
//	obs       — an instrumentation shim timing every Put/Get and
//	            feeding the metrics registry and event tracer;
//	gate      — the checkpoint-storm scheduler: a FIFO admission gate
//	            in front of Put so hundreds of nodes checkpointing at
//	            once queue fairly instead of convoying on the backend.
//
// Background retention GC (gc.go) walks head refs through
// migrate.ResolveChain to compute the live chain set and deletes dead
// chain members and superseded fulls, replacing the committer's
// best-effort inline prune on deployments that run it.
package store

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/obs"
)

// Options configures the observability and admission layers Open wraps
// around the backend named by the spec.
type Options struct {
	// Registry, when set, receives the tier's counters and histograms
	// (store.put_ns, store.gate.wait_ns, store.repl.*, store.gc.*).
	Registry *obs.Registry
	// Trace, when set, records store events (put, repair, gate, gc) on
	// the "store" stream.
	Trace *obs.Tracer
	// GateLimit, when > 0, bounds concurrent Puts through a FIFO
	// admission gate (the storm scheduler). 0 disables the gate.
	GateLimit int
}

// Open builds a checkpoint store from a spec string:
//
//	mem                      in-memory (test / single-process)
//	dir:PATH                 directory of checkpoint files
//	zdir:PATH                dir:PATH with per-chunk compression at rest
//	zmem                     mem with compression (a test backend)
//	tcp:ADDR                 remote store server (cmd/mojstored)
//	repl:N,SPEC,...          N-way replication over N sub-specs, write
//	                         quorum N/2+1 (sub-specs must not contain
//	                         commas and may not nest repl)
//
// The empty spec is "mem". Wrappers from Options are applied outermost
// (gate → obs → backend), so gate wait and put latency are measured
// separately.
func Open(spec string, opts Options) (migrate.Store, error) {
	backend, err := openBackend(spec, opts)
	if err != nil {
		return nil, err
	}
	s := newObsStore(backend, opts)
	if opts.GateLimit > 0 {
		return NewGate(s, opts.GateLimit, opts), nil
	}
	return s, nil
}

// openBackend resolves a spec to a bare backend (no obs/gate layers).
func openBackend(spec string, opts Options) (migrate.Store, error) {
	switch {
	case spec == "" || spec == "mem":
		return cluster.NewMemStore(), nil
	case spec == "zmem":
		return NewCompressed(cluster.NewMemStore(), opts), nil
	case strings.HasPrefix(spec, "dir:"):
		path := spec[len("dir:"):]
		if path == "" {
			return nil, fmt.Errorf("store: spec %q: empty directory path", spec)
		}
		return cluster.NewDirStore(path)
	case strings.HasPrefix(spec, "zdir:"):
		path := spec[len("zdir:"):]
		if path == "" {
			return nil, fmt.Errorf("store: spec %q: empty directory path", spec)
		}
		ds, err := cluster.NewDirStore(path)
		if err != nil {
			return nil, err
		}
		return NewCompressed(ds, opts), nil
	case strings.HasPrefix(spec, "tcp:"):
		addr := spec[len("tcp:"):]
		if addr == "" {
			return nil, fmt.Errorf("store: spec %q: empty address", spec)
		}
		return DialRemote(addr), nil
	case strings.HasPrefix(spec, "repl:"):
		return openReplicated(spec, opts)
	default:
		return nil, fmt.Errorf("store: unknown spec %q (want mem, dir:PATH, zdir:PATH, tcp:ADDR or repl:N,SPEC,...)", spec)
	}
}

// openReplicated parses "repl:N,SPEC,..." and builds the replica set.
func openReplicated(spec string, opts Options) (migrate.Store, error) {
	parts := strings.Split(spec[len("repl:"):], ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("store: spec %q: want repl:N,SPEC,...", spec)
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("store: spec %q: replica count %q must be a positive integer", spec, parts[0])
	}
	subs := parts[1:]
	if len(subs) != n {
		return nil, fmt.Errorf("store: spec %q: %d replica specs for repl:%d", spec, len(subs), n)
	}
	replicas := make([]migrate.Store, n)
	for i, sub := range subs {
		if strings.HasPrefix(sub, "repl:") {
			return nil, fmt.Errorf("store: spec %q: repl may not nest", spec)
		}
		r, err := openBackend(sub, Options{}) // inner layers stay bare; obs wraps the fan-out
		if err != nil {
			return nil, fmt.Errorf("store: spec %q: replica %d: %w", spec, i, err)
		}
		replicas[i] = r
	}
	return NewReplicated(replicas, 0, opts)
}

// Unwrapper is implemented by every wrapping store in the tier, so
// callers (fault injection, tests) can reach a layer by type.
type Unwrapper interface {
	Unwrap() migrate.Store
}

// FindReplicated walks a wrapped store down to its *Replicated layer;
// nil when the chain has none.
func FindReplicated(s migrate.Store) *Replicated {
	for s != nil {
		if r, ok := s.(*Replicated); ok {
			return r
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// obsStore times every operation and forwards the measurements to the
// registry and tracer. It is the one instrumentation point every
// backend shares, sitting inside the gate so queue wait and backend
// latency are reported separately.
type obsStore struct {
	inner    migrate.Store
	putNs    *obs.Histogram
	getNs    *obs.Histogram
	putBytes *obs.Counter
	puts     *obs.Counter
	failures *obs.Counter
	trace    *obs.Stream
}

func newObsStore(inner migrate.Store, opts Options) *obsStore {
	s := &obsStore{inner: inner}
	if opts.Registry != nil {
		s.putNs = opts.Registry.Histogram("store.put_ns")
		s.getNs = opts.Registry.Histogram("store.get_ns")
		s.putBytes = opts.Registry.Counter("store.put_bytes")
		s.puts = opts.Registry.Counter("store.puts")
		s.failures = opts.Registry.Counter("store.put_failures")
	}
	if opts.Trace != nil {
		s.trace = opts.Trace.Stream("store")
	}
	return s
}

func (s *obsStore) Unwrap() migrate.Store { return s.inner }

func (s *obsStore) Put(name string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(name, data)
	d := time.Since(t0)
	if err != nil {
		count(s.failures, 1)
		return err
	}
	record(s.putNs, d.Nanoseconds())
	count(s.putBytes, uint64(len(data)))
	count(s.puts, 1)
	s.trace.Emit(obs.EvStorePut, 0, 0, 0, int64(len(data)), d.Nanoseconds(), name)
	return nil
}

func (s *obsStore) Get(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.inner.Get(name)
	if err == nil {
		record(s.getNs, time.Since(t0).Nanoseconds())
	}
	return data, err
}

func (s *obsStore) List() ([]string, error) { return s.inner.List() }

func (s *obsStore) Delete(name string) error { return s.inner.Delete(name) }

// count / record are nil-safe metric helpers: the whole tier works with
// no registry attached.
func count(c *obs.Counter, n uint64) {
	if c != nil {
		c.Add(n)
	}
}

func record(h *obs.Histogram, v int64) {
	if h != nil {
		h.Record(v)
	}
}
