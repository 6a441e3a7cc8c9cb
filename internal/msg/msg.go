// Package msg implements the "customized message passing interface" the
// grid application of §2 uses for border exchange, including the rollback
// notification (the paper's MSG_ROLL) that makes processes join a failed
// neighbour's speculation and roll back together.
//
// Design notes:
//
//   - Messages are keyed (src, dst, tag); the grid app uses the timestep
//     as the tag. Delivery is idempotent and non-destructive: a receiver
//     can re-read a step's borders after rolling back, and a rolled-back
//     sender re-sends identical values (the computation is deterministic),
//     so replays converge.
//   - The router is sharded by destination: each node owns a mailbox with
//     per-link (per-source) buffers and its own lock and wakeup. A send
//     touches only the destination's mailbox and wakes only that node's
//     receiver, so concurrent node goroutines never contend on a global
//     lock or suffer broadcast storms. SendBatch delivers several tagged
//     payloads to one destination under a single lock acquisition.
//   - When a node fails, the router advances a rollback epoch. Every other
//     process observes MSG_ROLL exactly once on its next receive,
//     mirroring the paper's "all the other processes rollback their last
//     speculation to bring the computation to a consistent state".
//   - A payload is one encoded part: tag, word count, then a kind byte
//     and 8 value bytes per word (9 bytes, where a heap.Value takes 32).
//     msg_send encodes it straight from the sender's heap, msg_recv
//     decodes it straight into the receiver's; in between, the mailbox,
//     a worker's replay buffer and the hub keep the bytes (Parts), and
//     message frames carry them unchanged.
//   - Old messages are garbage-collected by msg_gc(tag), called by the
//     application after each committed checkpoint; the next window of
//     tags is stored in the buffers of the parts it drops.
//   - A receive with no matching message parks the calling goroutine on
//     the mailbox. BlockHooks let an execution engine lend the parked
//     node's worker slot to another node (see internal/cluster.Engine),
//     so a bounded worker pool cannot deadlock on a border exchange.
package msg

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
)

// Receive status codes returned to MojC/FIR code.
const (
	// StatusOK means the payload was delivered.
	StatusOK = 0
	// StatusRoll is the paper's MSG_ROLL: a failure or rollback elsewhere
	// requires this process to roll back its current speculation.
	StatusRoll = 1
	// StatusClosed means the router shut down (the run is over).
	StatusClosed = 2
)

// ErrClosed is returned by operations on a closed router.
var ErrClosed = errors.New("msg: router closed")

// Uplink carries router traffic whose destination is not hosted by this
// router — the transport-pluggable link underneath a distributed cluster.
// SendParts carries n encoded parts (see AppendPart) from src to dst and
// must preserve the keyed-idempotent contract (re-delivery of a (src,
// dst, tag) key overwrites; deterministic replays converge); GC
// propagates a node's mailbox pruning so remote buffers can shrink too.
// SendParts must not keep parts after it returns: callers reuse it.
type Uplink interface {
	SendParts(src, dst int64, parts []byte, n int) error
	GC(node, below int64) error
}

// BlockHooks notifies an execution engine around a parked receive: OnBlock
// runs once just before the receiver goroutine parks, OnUnblock runs after
// it unparks and before Recv returns. A bounded worker pool releases the
// blocked node's slot in OnBlock and reacquires it in OnUnblock so that a
// node waiting for a border cannot starve the node that will send it.
type BlockHooks struct {
	OnBlock   func()
	OnUnblock func()
}

// mailbox is one destination's inbound state: the encoded parts sent to
// it, plus the node's rollback-epoch cursor.
type mailbox struct {
	mu    sync.Mutex
	cond  sync.Cond // embedded, L set to &mu at construction
	parts Parts     // src -> tag -> part
	seen  int64     // last rollback epoch observed
}

// Router is the in-memory interconnect between the node processes of a
// simulated cluster.
type Router struct {
	epoch      atomic.Int64
	closed     atomic.Bool
	closeCause atomic.Value // *error; see CloseErr

	mu    sync.RWMutex // guards boxes map (not mailbox contents)
	boxes map[int64]*mailbox

	failMu sync.Mutex
	failed map[int64]bool

	// linkMu guards the distributed-transport plumbing: which nodes this
	// router hosts locally and the uplink that carries everything else.
	linkMu sync.RWMutex
	uplink Uplink
	local  map[int64]bool

	sends, recvs, rolls, failures, gced, wordsSent atomic.Uint64

	// partMu guards the scripted network partition: local deliveries
	// crossing the cut are withheld here (not lost) until HealPartition.
	partMu   sync.Mutex
	partCut  func(src, dst int64) bool
	partHeld []func() // delivers one withheld send

	// onRoll, when set, observes every MSG_ROLL delivery (SetRollHook).
	onRoll atomic.Value // func(node, epoch int64)
}

// Stats counts router activity.
type Stats struct {
	Sends     uint64
	Recvs     uint64
	Rolls     uint64 // MSG_ROLL deliveries
	Failures  uint64 // Fail calls
	GCed      uint64 // messages dropped by msg_gc
	WordsSent uint64
}

// NewRouter creates an empty router.
func NewRouter() *Router {
	return &Router{
		boxes:  make(map[int64]*mailbox),
		failed: make(map[int64]bool),
	}
}

// Stats returns a copy of the counters.
func (r *Router) Stats() Stats {
	return Stats{
		Sends:     r.sends.Load(),
		Recvs:     r.recvs.Load(),
		Rolls:     r.rolls.Load(),
		Failures:  r.failures.Load(),
		GCed:      r.gced.Load(),
		WordsSent: r.wordsSent.Load(),
	}
}

// mbox returns the destination's mailbox, creating it on first use.
func (r *Router) mbox(dst int64) *mailbox {
	r.mu.RLock()
	mb := r.boxes[dst]
	r.mu.RUnlock()
	if mb != nil {
		return mb
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if mb = r.boxes[dst]; mb == nil {
		mb = &mailbox{}
		mb.cond.L = &mb.mu
		r.boxes[dst] = mb
	}
	return mb
}

// Register creates a node's mailbox eagerly. The cluster engine registers
// every node at start so failure epochs raised before a node's first
// receive are still observed by it.
func (r *Router) Register(node int64) { r.mbox(node) }

// SetUplink installs the transport link for destinations this router does
// not host. With an uplink set, SendBatch forwards any send whose
// destination is not marked local (see SetLocal), and GC propagates
// pruning upstream. A nil uplink restores pure in-process routing.
func (r *Router) SetUplink(u Uplink) {
	r.linkMu.Lock()
	r.uplink = u
	r.linkMu.Unlock()
}

// SetLocal marks nodes as hosted by this router: their mailboxes live
// here, and sends to them are delivered in-process even when an uplink is
// installed.
func (r *Router) SetLocal(nodes ...int64) {
	r.linkMu.Lock()
	if r.local == nil {
		r.local = make(map[int64]bool)
	}
	for _, n := range nodes {
		r.local[n] = true
	}
	r.linkMu.Unlock()
	for _, n := range nodes {
		r.Register(n)
	}
}

// Local reports whether sends to dst are delivered by this router itself.
// Without an uplink every destination is local.
func (r *Router) Local(dst int64) bool { return r.route(dst) == nil }

// route returns the uplink to forward a send through, or nil for local
// delivery.
func (r *Router) route(dst int64) Uplink {
	r.linkMu.RLock()
	defer r.linkMu.RUnlock()
	if r.uplink == nil || r.local[dst] {
		return nil
	}
	return r.uplink
}

// Epoch returns the current rollback epoch.
func (r *Router) Epoch() int64 { return r.epoch.Load() }

// SetEpoch advances the rollback epoch to at least e and wakes every
// parked receiver, so each hosted node observes MSG_ROLL once. The
// distributed transport calls it when the coordinator announces a remote
// failure; it never moves the epoch backwards.
func (r *Router) SetEpoch(e int64) {
	for {
		cur := r.epoch.Load()
		if cur >= e {
			return
		}
		if r.epoch.CompareAndSwap(cur, e) {
			r.broadcastAll()
			return
		}
	}
}

// Seen returns the last rollback epoch a node has observed.
func (r *Router) Seen(node int64) int64 {
	mb := r.mbox(node)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.seen
}

// SetSeen sets a node's rollback-epoch cursor. A process migrated in from
// another OS process has observed exactly the epochs its source
// incarnation had; the transport carries that cursor across the wire.
func (r *Router) SetSeen(node, seen int64) {
	mb := r.mbox(node)
	mb.mu.Lock()
	mb.seen = seen
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// broadcastAll wakes every parked receiver (epoch advance or shutdown).
func (r *Router) broadcastAll() {
	r.mu.RLock()
	boxes := make([]*mailbox, 0, len(r.boxes))
	for _, mb := range r.boxes {
		boxes = append(boxes, mb)
	}
	r.mu.RUnlock()
	for _, mb := range boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Close releases every blocked receiver with StatusClosed.
func (r *Router) Close() {
	r.closed.Store(true)
	r.broadcastAll()
}

// CloseErr closes the router recording cause: sends then fail with cause
// instead of the generic ErrClosed. The transport uses it when the hub is
// permanently unreachable, so a process observes the transport failure
// rather than what looks like an orderly local shutdown. A nil cause is
// Close.
func (r *Router) CloseErr(cause error) {
	if cause != nil {
		r.closeCause.CompareAndSwap(nil, &cause)
	}
	r.Close()
}

// closedErr returns the error a send on a closed router fails with.
func (r *Router) closedErr() error {
	if p := r.closeCause.Load(); p != nil {
		return *p.(*error)
	}
	return ErrClosed
}

// Fail marks a node as failed and advances the rollback epoch: every other
// node's next receive reports MSG_ROLL once.
func (r *Router) Fail(node int64) {
	r.failMu.Lock()
	r.failed[node] = true
	r.failMu.Unlock()
	r.epoch.Add(1)
	r.failures.Add(1)
	r.broadcastAll()
}

// Restore clears a node's failed mark (after resurrection) and marks it as
// having already observed the current epoch — the resurrected process
// resumes from its checkpoint, which is already the rollback point.
func (r *Router) Restore(node int64) {
	r.failMu.Lock()
	delete(r.failed, node)
	r.failMu.Unlock()
	mb := r.mbox(node)
	mb.mu.Lock()
	mb.seen = r.epoch.Load()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// InheritSeen copies the rollback-epoch cursor from one node to another.
// The engine uses it during a node-to-node handoff: the migrated-in
// incarnation has observed exactly the failures its source incarnation
// had, no more and no fewer.
func (r *Router) InheritSeen(from, to int64) {
	r.SetSeen(to, r.Seen(from))
}

// SetRollHook installs fn, invoked on the receiving node's own goroutine
// at every MSG_ROLL delivery with that node's id and the epoch it just
// observed. It runs under the mailbox lock: fn must be cheap and must not
// call back into the router. The tracing layer records rollback cascades
// through this hook without the router depending on it.
func (r *Router) SetRollHook(fn func(node, epoch int64)) {
	r.onRoll.Store(fn)
}

// Partition installs a network cut between node sets a and b: every local
// delivery crossing the cut (either direction) is withheld — held, not
// dropped — until HealPartition releases it. Senders keep making progress
// (sends are non-blocking); receivers on the far side simply park until
// the heal. Keyed idempotent delivery makes the late release harmless even
// across intervening failures and rollbacks. A second Partition replaces
// the first (healing nothing); fault scripts fire one at a time.
func (r *Router) Partition(a, b []int64) {
	inA := make(map[int64]bool, len(a))
	inB := make(map[int64]bool, len(b))
	for _, n := range a {
		inA[n] = true
	}
	for _, n := range b {
		inB[n] = true
	}
	r.partMu.Lock()
	r.partCut = func(src, dst int64) bool {
		return (inA[src] && inB[dst]) || (inB[src] && inA[dst])
	}
	r.partMu.Unlock()
}

// HealPartition removes the cut and delivers every withheld message
// through the normal send path, in the order it was originally sent.
func (r *Router) HealPartition() {
	r.partMu.Lock()
	r.partCut = nil
	held := r.partHeld
	r.partHeld = nil
	r.partMu.Unlock()
	for _, deliver := range held {
		deliver()
	}
}

// holdPartitioned withholds a delivery when an active partition cuts the
// (src, dst) link, reporting whether it did. The parts are copied:
// senders reuse their buffers.
func (r *Router) holdPartitioned(src, dst int64, parts []byte) bool {
	r.partMu.Lock()
	defer r.partMu.Unlock()
	if r.partCut == nil || !r.partCut(src, dst) {
		return false
	}
	cp := slices.Clone(parts)
	r.partHeld = append(r.partHeld, func() { _ = r.SendBatch(src, dst, cp) })
	return true
}

// Failed reports whether a node is currently failed.
func (r *Router) Failed(node int64) bool {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failed[node]
}

// partBufs pools Send's encoding scratch.
var partBufs = sync.Pool{New: func() any { return new([]byte) }}

// Send stores a message. Sends are non-blocking and idempotent: re-sending
// (src, dst, tag) overwrites with identical content on deterministic
// replays. Only the destination's mailbox is locked and only its receiver
// is woken.
func (r *Router) Send(src, dst, tag int64, words []heap.Value) error {
	bp := partBufs.Get().(*[]byte)
	defer partBufs.Put(bp)
	part, err := AppendPart((*bp)[:0], tag, words)
	if err != nil {
		return err
	}
	*bp = part
	return r.send(src, dst, part, 1)
}

// SendBatch delivers the encoded parts concatenated in parts from src to
// dst under one mailbox lock acquisition and a single wakeup — the
// batched border exchange for applications that ship multiple tags per
// step, and the worker's delivery of an inbound message frame. Every part
// is validated (SplitPart) before any is stored, and copied (or framed,
// through the uplink) before SendBatch returns, so the caller may reuse
// parts at once.
func (r *Router) SendBatch(src, dst int64, parts []byte) error {
	n := 0
	for rest := parts; len(rest) > 0; n++ {
		var err error
		if _, _, rest, err = SplitPart(rest); err != nil {
			return err
		}
	}
	return r.send(src, dst, parts, n)
}

// send delivers the n valid parts concatenated in parts.
func (r *Router) send(src, dst int64, parts []byte, n int) error {
	if r.closed.Load() {
		return r.closedErr()
	}
	r.sends.Add(uint64(n))
	r.wordsSent.Add(uint64((len(parts) - n*PartHead) / WordLen))
	if up := r.route(dst); up != nil {
		return up.SendParts(src, dst, parts, n)
	}
	if r.holdPartitioned(src, dst, parts) {
		return nil
	}
	mb := r.mbox(dst)
	mb.mu.Lock()
	// Re-check under the mailbox lock: Close's broadcast pass takes every
	// mailbox lock, so a send that got past the fast-path check above must
	// not report delivery after Close has returned — receivers will only
	// ever see StatusClosed.
	if r.closed.Load() {
		mb.mu.Unlock()
		return r.closedErr()
	}
	mb.parts.Put(src, parts)
	mb.cond.Broadcast()
	mb.mu.Unlock()
	return nil
}

// Recv blocks until a message (src→dst, tag) is available, a rollback
// epoch must be observed, or the router closes. It returns the payload and
// a status code.
func (r *Router) Recv(dst, src, tag int64) ([]heap.Value, int64) {
	return r.RecvHooked(dst, src, tag, nil)
}

// TryRecv is the non-blocking receive: ok reports whether a status was
// available at all. When ok is false the caller may park or poll.
//
// A returned status carries the same obligations as one from Recv: in
// particular StatusRoll is the node's single MSG_ROLL delivery for the
// current epoch — a caller polling for a specific message must still act
// on a rollback (not discard it and poll again), or the node will never
// join the failure's rollback and the cluster state diverges.
func (r *Router) TryRecv(dst, src, tag int64) (words []heap.Value, status int64, ok bool) {
	mb := r.mbox(dst)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	part, status, ok := r.tryLocked(mb, dst, src, tag)
	if part != nil {
		words = decodePart(nil, part)
	}
	return words, status, ok
}

// tryLocked checks the terminal conditions in priority order with the
// mailbox lock held: shutdown, pending rollback epoch, matching message.
// A message is returned as the stored part, which a later send may
// overwrite in place: callers use it before they unlock.
func (r *Router) tryLocked(mb *mailbox, dst, src, tag int64) ([]byte, int64, bool) {
	if r.closed.Load() {
		return nil, StatusClosed, true
	}
	if epoch := r.epoch.Load(); mb.seen < epoch {
		mb.seen = epoch
		r.rolls.Add(1)
		if fn := r.onRoll.Load(); fn != nil {
			fn.(func(node, epoch int64))(dst, epoch)
		}
		return nil, StatusRoll, true
	}
	if part, ok := mb.parts.bySrc[src][tag]; ok {
		r.recvs.Add(1)
		return part, StatusOK, true
	}
	return nil, 0, false
}

// RecvHooked is Recv with engine notifications around the park: see
// BlockHooks. A nil hooks value makes it identical to Recv.
func (r *Router) RecvHooked(dst, src, tag int64, hooks *BlockHooks) ([]heap.Value, int64) {
	var words []heap.Value
	status := r.recv(dst, src, tag, hooks, func(part []byte) { words = decodePart(nil, part) })
	return words, status
}

// recv is RecvHooked handing a received part to take, under the mailbox
// lock: take copies or decodes what it keeps.
func (r *Router) recv(dst, src, tag int64, hooks *BlockHooks, take func(part []byte)) int64 {
	mb := r.mbox(dst)
	mb.mu.Lock()
	blocked := false
	for {
		part, status, ok := r.tryLocked(mb, dst, src, tag)
		if ok {
			if status == StatusOK {
				take(part)
			}
			mb.mu.Unlock()
			if blocked && hooks != nil && hooks.OnUnblock != nil {
				// Reacquire the worker slot outside the mailbox lock: the
				// slot holder may be a sender waiting for this very lock.
				hooks.OnUnblock()
			}
			return status
		}
		if !blocked && hooks != nil && hooks.OnBlock != nil {
			// Releasing a held slot never blocks, so it is safe under the
			// mailbox lock; this keeps release-then-park atomic with the
			// availability check above (no missed wakeups).
			hooks.OnBlock()
			blocked = true
		}
		mb.cond.Wait()
	}
}

// GC drops every message addressed TO `node` with tag < below. The grid
// app calls it after each committed checkpoint: once a node has committed
// past a step it can never re-read that step's borders. Outbound messages
// are deliberately retained — a neighbour that resumes from an older
// checkpoint may still need them.
func (r *Router) GC(node, below int64) {
	mb := r.mbox(node)
	mb.mu.Lock()
	r.gced.Add(uint64(mb.parts.Prune(below)))
	mb.mu.Unlock()
	// Propagate the pruning upstream so a coordinator's store-and-forward
	// buffer for this node shrinks too. Best-effort: a failed propagation
	// only costs remote memory, never correctness.
	r.linkMu.RLock()
	up := r.uplink
	r.linkMu.RUnlock()
	if up != nil {
		_ = up.GC(node, below)
	}
}

// Externs returns the message-passing externals for a node process:
//
//	msg_send(dst, tag, p, off, n) int   — send n words of p starting at off
//	msg_recv(src, tag, p, off, n) int   — receive into p; returns a status
//	msg_gc(below) int                   — drop messages with tag < below
//	node_id() int                       — this node's id
//
// Payload words must be scalars (int or float); pointers are process-local
// and never cross the interconnect.
func (r *Router) Externs(node int64) rt.Registry {
	return r.ExternsHooked(node, nil)
}

// ExternsHooked is Externs with BlockHooks threaded into msg_recv, used by
// the cluster engine's bounded worker pool. The node's mailbox is
// registered eagerly so epochs raised before its first receive are seen.
// msgExternArgs is the shared (dst/src, tag, p, off, n) signature of
// msg_send and msg_recv; msgGCArgs is msg_gc's. Shared across registries
// so building one costs no signature allocations.
var (
	msgExternArgs = []fir.Type{fir.TyInt, fir.TyInt, fir.TyPtr, fir.TyInt, fir.TyInt}
	msgGCArgs     = []fir.Type{fir.TyInt}
)

func (r *Router) ExternsHooked(node int64, hooks *BlockHooks) rt.Registry {
	r.Register(node)
	reg := make(rt.Registry, 4)

	// Per-registry part buffers, reused across calls. A registry binds one
	// node process whose extern calls its machine serializes; the router
	// and the transport both copy a sent part before returning.
	var sendBuf, recvBuf []byte

	reg["msg_send"] = rt.Extern{
		Sig: fir.ExternSig{Args: msgExternArgs, Result: fir.TyInt},
		Fn: func(rtx rt.Runtime, a []heap.Value) (heap.Value, error) {
			dst, tag, p, off, n := a[0].I, a[1].I, a[2], a[3].I, a[4].I
			if n < 0 {
				return heap.Value{}, fmt.Errorf("msg_send: negative length %d", n)
			}
			h := rtx.Heap()
			part, ws := growPart(sendBuf[:0], tag, int(n))
			sendBuf = part
			for i := int64(0); i < n; i++ {
				w, err := h.Load(p, off+i)
				if err != nil {
					return heap.Value{}, err
				}
				if !putWord(ws[i*WordLen:], w) {
					return heap.Value{}, fmt.Errorf("msg_send: word %d is %s; only scalars cross the interconnect", i, w.Kind)
				}
			}
			if err := r.send(node, dst, part, 1); err != nil {
				return heap.IntVal(StatusClosed), nil
			}
			return heap.IntVal(StatusOK), nil
		},
	}

	reg["msg_recv"] = rt.Extern{
		Sig: fir.ExternSig{Args: msgExternArgs, Result: fir.TyInt},
		Fn: func(rtx rt.Runtime, a []heap.Value) (heap.Value, error) {
			src, tag, p, off, n := a[0].I, a[1].I, a[2], a[3].I, a[4].I
			// Copy the part out under the mailbox lock; decode it into the
			// heap outside it.
			status := r.recv(node, src, tag, hooks, func(part []byte) { recvBuf = append(recvBuf[:0], part...) })
			if status != StatusOK {
				return heap.IntVal(status), nil
			}
			n = min(n, int64(words(recvBuf)))
			h := rtx.Heap()
			for i, w := int64(0), recvBuf[PartHead:]; i < n; i, w = i+1, w[WordLen:] {
				if err := h.Store(p, off+i, word(w)); err != nil {
					return heap.Value{}, err
				}
			}
			return heap.IntVal(StatusOK), nil
		},
	}

	reg["msg_gc"] = rt.Extern{
		Sig: fir.ExternSig{Args: msgGCArgs, Result: fir.TyInt},
		Fn: func(rtx rt.Runtime, a []heap.Value) (heap.Value, error) {
			r.GC(node, a[0].I)
			return heap.IntVal(0), nil
		},
	}

	reg["node_id"] = rt.Extern{
		Sig: fir.ExternSig{Result: fir.TyInt},
		Fn: func(rtx rt.Runtime, a []heap.Value) (heap.Value, error) {
			return heap.IntVal(node), nil
		},
	}
	return reg
}

// Sigs returns the extern signatures without binding a node, for
// compilation and unpack-time type checking.
func Sigs() map[string]fir.ExternSig {
	r := NewRouter()
	return r.Externs(0).Sigs()
}
