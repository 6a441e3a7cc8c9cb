package store

import (
	"sync"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// The storm scheduler: when hundreds of nodes hit a shared store at a
// checkpoint interval boundary (the mojd deployment), unbounded
// concurrent Puts convoy on the backend — disk seeks interleave, every
// writer's latency degrades together, and the committer backpressure
// bound turns into a cluster-wide stall. The gate bounds concurrency
// and admits waiters strictly FIFO, so each Put sees a predictable
// queue wait (measured in store.gate.wait_ns) instead of a lottery.
//
// A plain buffered-channel semaphore is NOT FIFO under contention (Go
// runtime wakeup order is unspecified), so the gate keeps an explicit
// waiter queue: each waiter parks on its own channel and the releaser
// hands the slot to the queue head.

// Gate is a FIFO admission gate over Put. Get/List/Delete pass through
// ungated — reads are recovery-path traffic that must never queue
// behind a checkpoint storm.
type Gate struct {
	inner migrate.Store
	limit int

	mu      sync.Mutex
	active  int
	waiters []chan struct{}

	depth  *obs.Gauge     // current queue depth (waiting, not admitted)
	waitNs *obs.Histogram // admission wait per Put
	trace  *obs.Stream
}

// NewGate bounds concurrent Puts on inner to limit (>= 1).
func NewGate(inner migrate.Store, limit int, opts Options) *Gate {
	if limit < 1 {
		limit = 1
	}
	g := &Gate{inner: inner, limit: limit}
	if opts.Registry != nil {
		g.depth = opts.Registry.Gauge("store.gate.depth")
		g.waitNs = opts.Registry.Histogram("store.gate.wait_ns")
	}
	if opts.Trace != nil {
		g.trace = opts.Trace.Stream("store")
	}
	return g
}

func (g *Gate) Unwrap() migrate.Store { return g.inner }

// acquire blocks until a slot frees, FIFO.
func (g *Gate) acquire() time.Duration {
	g.mu.Lock()
	if g.active < g.limit && len(g.waiters) == 0 {
		g.active++
		g.mu.Unlock()
		return 0
	}
	slot := make(chan struct{})
	g.waiters = append(g.waiters, slot)
	g.depth.Set(int64(len(g.waiters)))
	g.mu.Unlock()
	t0 := time.Now()
	<-slot
	return time.Since(t0)
}

// release frees a slot, admitting the queue head if one waits.
func (g *Gate) release() {
	g.mu.Lock()
	if len(g.waiters) > 0 {
		head := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.depth.Set(int64(len(g.waiters)))
		// The slot transfers directly: active stays constant.
		g.mu.Unlock()
		close(head)
		return
	}
	g.active--
	g.mu.Unlock()
}

// Put waits for admission, then forwards.
func (g *Gate) Put(name string, data []byte) error {
	wait := g.acquire()
	defer g.release()
	g.waitNs.Record(wait.Nanoseconds())
	if wait > 0 {
		g.trace.Emit(obs.EvStoreGate, 0, 0, 0, int64(len(data)), wait.Nanoseconds(), name)
	}
	return g.inner.Put(name, data)
}

func (g *Gate) Get(name string) ([]byte, error) { return g.inner.Get(name) }

func (g *Gate) List() ([]string, error) { return g.inner.List() }

func (g *Gate) Delete(name string) error { return g.inner.Delete(name) }
