package transport

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/store"
)

// Result is a node's final disposition as reported by its worker process.
type Result struct {
	Node   int64
	Status rt.Status
	Halt   int64
	Steps  uint64
	Rolls  uint64 // MSG_ROLL deliveries observed by the worker's router
	Err    string
}

// Hub is the cluster coordinator: the registry that maps node IDs to
// worker connections, the store-and-forward relay for border messages,
// the failure detector's mouthpiece (rollback-epoch broadcast) and the
// router of cross-process handoffs. The shared checkpoint store is not
// carried on the hub's links: a store.Server beside the hub serves it,
// and each WELCOME tells the worker its port.
type Hub struct {
	fs        *frame.Server
	store     *store.Server
	storePort uint32

	// Trace, when set before workers connect, records relay activity
	// (frame recv/send/replay, failure broadcasts, handoff relays) on the
	// "hub" stream. Hub events carry wall-clock ordering only — the hub
	// has no step counter; logical time lives in the workers' events.
	Trace *obs.Tracer

	mu       sync.Mutex
	sessions map[int64]*session
	buf      msgBuf                    // dst -> src -> tag -> encoded part
	partCut  func(src, dst int64) bool // active partition, nil when healed
	partDsts map[int64]bool            // nodes with withheld inbound traffic
	epoch    int64
	failed   map[int64]bool
	results  map[int64]Result
	resCond  *sync.Cond
	relays   map[uint32]relayOrigin // hub-assigned migrate RPC id -> origin
	relayID  uint32
	closed   bool
}

// relayOrigin remembers where to route a migrate acknowledgement back to.
type relayOrigin struct {
	sess *session
	id   uint32
}

// session is one worker connection. A session initially owns the node it
// sent in HELLO and can acquire more via OWN (cross-process handoff).
type session struct {
	hub  *Hub
	conn net.Conn

	wmu   sync.Mutex // serializes frame writes
	nodes []int64    // nodes registered through this session
}

// Listen starts a hub on addr ("host:0" picks a port) and, on the same
// host at a port of its own, a store.Server for st, the shared checkpoint
// store; every WELCOME carries that port. The store is required:
// production coordinators pass a DirStore on the shared mount.
func Listen(addr string, st migrate.Store) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	host, _, _ := net.SplitHostPort(ln.Addr().String())
	srv, err := store.Serve(net.JoinHostPort(host, "0"), st)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	_, port, _ := net.SplitHostPort(srv.Addr())
	p, _ := strconv.ParseUint(port, 10, 16)
	h := &Hub{
		store:     srv,
		storePort: uint32(p),
		sessions:  make(map[int64]*session),
		buf:       make(msgBuf),
		failed:    make(map[int64]bool),
		results:   make(map[int64]Result),
		relays:    make(map[uint32]relayOrigin),
	}
	h.resCond = sync.NewCond(&h.mu)
	h.fs = frame.NewServer(ln, 0, func(conn net.Conn) {
		(&session{hub: h, conn: conn}).serve()
	})
	go h.fs.Serve()
	return h, nil
}

// Addr returns the hub's listen address — what workers -join.
func (h *Hub) Addr() string { return h.fs.Addr() }

// ev returns the hub trace stream, nil when tracing is off.
func (h *Hub) ev() *obs.Stream {
	if h.Trace == nil {
		return nil
	}
	return h.Trace.Stream("hub")
}

// Epoch returns the current global rollback epoch.
func (h *Hub) Epoch() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// HasSession reports whether a live worker session currently owns node.
func (h *Hub) HasSession(node int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sessions[node] != nil
}

// WaitSession blocks until a live worker session owns node, the hub
// closes or the timeout expires, and reports whether one does.
func (h *Hub) WaitSession(node int64, timeout time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.waitLocked(timeout, func() bool { return h.sessions[node] != nil })
	return h.sessions[node] != nil
}

// waitLocked blocks on resCond until done holds, the hub closes or the
// timeout expires. Called with h.mu held.
func (h *Hub) waitLocked(timeout time.Duration, done func() bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		h.mu.Lock()
		h.resCond.Broadcast()
		h.mu.Unlock()
	})
	defer timer.Stop()
	for !done() && !h.closed && time.Now().Before(deadline) {
		h.resCond.Wait()
	}
}

// BufferedTags returns the tags the hub's store-and-forward buffer holds
// for dst from src, sorted — an observable proxy for how far the sender
// has progressed (and what a rejoining dst would have replayed).
func (h *Hub) BufferedTags(dst, src int64) []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buf[dst].Tags(src)
}

// Close stops the hub and its store server: no new connections, all
// sessions dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.resCond.Broadcast()
	h.mu.Unlock()
	_ = h.fs.Close()
	_ = h.store.Close()
}

// DropLinks abruptly closes every worker connection without failing any
// node — a network blip. Workers are expected to reconnect and replay;
// the keyed buffers on both sides make the blip invisible to the grid
// computation. Store connections are not links and stay up. Exposed for
// fault-injection tests.
func (h *Hub) DropLinks() { h.fs.CloseConns() }

// Fail declares a node failed: the global rollback epoch advances, every
// connected worker is told to observe MSG_ROLL, and the failed node's
// worker is ordered to die. The failed mark stands until a new
// incarnation of the node joins (resurrection HELLO clears it).
func (h *Hub) Fail(node int64) {
	h.mu.Lock()
	h.failed[node] = true
	h.epoch++
	epoch := h.epoch
	victim := h.sessions[node]
	var sessions []*session // one per connection, however many nodes it hosts
	for _, s := range h.sessions {
		if !slices.Contains(sessions, s) {
			sessions = append(sessions, s)
		}
	}
	h.mu.Unlock()

	h.ev().Emit(obs.EvFail, int(node), uint64(epoch), 0, int64(len(sessions)), 0, "")
	roll := encodeInt(fRoll, epoch)
	for _, s := range sessions {
		if s == victim {
			continue
		}
		_ = s.write(roll)
	}
	if victim != nil {
		_ = victim.write(encodeInt(fFail, node))
	}
}

// Partition installs a network cut between node sets a and b: message
// frames crossing the cut land in the hub's keyed store-and-forward buffer
// as usual but are not forwarded until HealPartition. Nothing is lost —
// the partition is a delay, exactly like a worker that is slow to rejoin,
// and the heal replays through the same keyed buffer a rejoin would.
func (h *Hub) Partition(a, b []int64) {
	inA := make(map[int64]bool, len(a))
	inB := make(map[int64]bool, len(b))
	for _, n := range a {
		inA[n] = true
	}
	for _, n := range b {
		inB[n] = true
	}
	h.mu.Lock()
	h.partCut = func(src, dst int64) bool {
		return (inA[src] && inB[dst]) || (inB[src] && inA[dst])
	}
	h.partDsts = make(map[int64]bool)
	h.mu.Unlock()
}

// HealPartition removes the cut and replays each affected destination's
// buffered frames to its live session — the same replay a reconnecting
// worker gets. Keyed idempotent delivery makes the re-send of frames that
// did arrive before the cut harmless.
func (h *Hub) HealPartition() {
	h.mu.Lock()
	h.partCut = nil
	var replays []func()
	for dst := range h.partDsts {
		if s := h.sessions[dst]; s != nil && !h.failed[dst] {
			frames := h.buf.frames(dst)
			replays = append(replays, func() { h.replay(s, 0, 0, frames, "heal") })
		}
	}
	h.partDsts = nil
	h.mu.Unlock()
	for _, replay := range replays {
		replay()
	}
}

// replay writes buffered frames to s, traced as a replay to node.
func (h *Hub) replay(s *session, node, epoch int64, frames [][]byte, why string) {
	if len(frames) > 0 {
		h.ev().Emit(obs.EvFrameReplay, int(node), uint64(epoch), 0, int64(len(frames)), 0, why)
	}
	for _, f := range frames {
		_ = s.write(f)
	}
}

// WaitResults blocks until n distinct nodes have reported final states or
// the timeout expires.
func (h *Hub) WaitResults(n int, timeout time.Duration) (map[int64]Result, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.waitLocked(timeout, func() bool { return len(h.results) >= n })
	out := make(map[int64]Result, len(h.results))
	for k, v := range h.results {
		out[k] = v
	}
	if len(out) < n {
		return out, fmt.Errorf("transport: %d of %d node results after %s", len(out), n, timeout)
	}
	return out, nil
}

// ClearResult forgets a node's reported result. The coordinator clears a
// node before resurrecting it when its old incarnation already reported
// (a kill that landed after the node finished), so WaitResults blocks
// until the fresh incarnation reports instead of returning a stale state.
func (h *Hub) ClearResult(node int64) {
	h.mu.Lock()
	delete(h.results, node)
	h.mu.Unlock()
}

func (s *session) write(frameBytes []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return frame.Write(s.conn, frameBytes)
}

// serve reads the session's frames until it drops. Message and GC frames
// reuse one buffer (relayMsg is done with a frame when it returns); any
// other frame gets a fresh one, so no image stays pinned by the session.
func (s *session) serve() {
	defer s.close()
	var buf []byte
	for {
		b, err := frame.ReadInto(s.conn, buf)
		if err != nil {
			return
		}
		if len(b) == 0 {
			continue
		}
		buf = nil
		if b[0] == fMsg || b[0] == fGC {
			buf = b[:0]
		}
		switch b[0] {
		case fHello:
			node, resurrect, err := decodeHello(b)
			if err != nil {
				return
			}
			s.hub.register(s, node, true, resurrect)
		case fOwn:
			node, err := decodeInt(b)
			if err != nil {
				return
			}
			s.hub.register(s, node, false, false)
		case fMsg:
			if s.hub.relayMsg(b) != nil {
				return
			}
		case fGC:
			node, below, err := decodeGC(b)
			if err != nil {
				return
			}
			s.hub.pruneBuf(node, below)
		case fExit:
			res, err := decodeExit(b)
			if err != nil {
				return
			}
			s.hub.recordResult(res)
		case fMigrate:
			id, src, dst, seen, image, err := decodeMigrate(b)
			if err != nil {
				return
			}
			s.hub.relayMigrate(s, id, src, dst, seen, image)
		case fAck:
			id, errStr, err := decodeAck(b)
			if err != nil {
				return
			}
			s.hub.relayMigrateAck(id, errStr)
		default:
			return // protocol violation: drop the session
		}
	}
}

// close unregisters every node this session owned. Losing a connection is
// NOT a node failure: the failure decision belongs to Fail (the paper's
// external failure detector) — a silently dropped worker keeps its state
// and may reconnect, at which point the buffered messages replay.
func (s *session) close() {
	_ = s.conn.Close()
	h := s.hub
	h.mu.Lock()
	for _, n := range s.nodes {
		if h.sessions[n] == s {
			delete(h.sessions, n)
		}
	}
	h.mu.Unlock()
}

// register installs a session as the owner of a node. hello sessions get
// a WELCOME with the current epoch; in both cases every buffered message
// for the node is replayed — the wire analogue of the mailbox a
// reconnecting or resurrected process would still own in-process. Only a
// resurrection clears a failed mark: anything else claiming a failed node
// is a zombie incarnation (the kill order may have been lost in a blip)
// and gets the kill repeated instead of being registered.
func (h *Hub) register(s *session, node int64, hello, resurrect bool) {
	h.mu.Lock()
	if h.failed[node] && !resurrect {
		epoch := h.epoch
		h.mu.Unlock()
		if hello {
			_ = s.write(encodeWelcome(epoch, h.storePort))
		}
		_ = s.write(encodeInt(fFail, node))
		return
	}
	if old := h.sessions[node]; old != nil && old != s {
		if resurrect {
			// The old session is another worker: the incarnation this one
			// replaces. Repeat its kill order and let it hang up itself.
			// Closing here can reset the connection under an order it has
			// not read yet; it would then redial, take the node back, and
			// the two would trade it until the run times out.
			_ = old.write(encodeInt(fFail, node))
		} else {
			// The same worker's connection from before a blip; drop it.
			_ = old.conn.Close()
		}
	}
	h.sessions[node] = s
	h.resCond.Broadcast() // WaitSession
	s.nodes = append(s.nodes, node)
	delete(h.failed, node) // the resurrected incarnation is alive
	epoch := h.epoch
	replay := h.buf.frames(node)
	h.mu.Unlock()

	if hello {
		_ = s.write(encodeWelcome(epoch, h.storePort))
	}
	h.replay(s, node, epoch, replay, "")
}

// relayMsg validates a message frame, copies its parts into the relay
// buffer (latest part per key wins — the keyed idempotent contract) and
// forwards the frame as it arrived to the destination's live session, if
// any. Nothing is decoded, and nothing keeps raw once relayMsg returns. A
// malformed frame is buffered nowhere; its error drops the session.
func (h *Hub) relayMsg(raw []byte) error {
	src, dst, parts, n, err := scanMsg(raw)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.buf.put(src, dst, parts)
	target := h.sessions[dst]
	if h.failed[dst] {
		target = nil // the node is dead; its resurrection will replay
	}
	if h.partCut != nil && h.partCut(src, dst) {
		target = nil // partitioned: buffered above, replayed at heal
		h.partDsts[dst] = true
	}
	h.mu.Unlock()
	if s := h.ev(); s != nil {
		s.Emit(obs.EvFrameRecv, int(src), 0, 0, dst, int64(n), "msg")
		if target != nil {
			s.Emit(obs.EvFrameSend, int(dst), 0, 0, src, int64(n), "msg")
		}
	}
	if target != nil {
		_ = target.write(raw)
	}
	return nil
}

// pruneBuf drops buffered messages for node with tag < below (the
// receiver committed past them; it can never re-read their step) and
// passes the GC on to the live session of every source the hub holds
// node's messages from, so their replay buffers shrink too.
func (h *Hub) pruneBuf(node, below int64) {
	h.mu.Lock()
	h.buf[node].Prune(below)
	var srcs []*session
	h.buf[node].Each(func(src int64, _ map[int64][]byte) {
		if s := h.sessions[src]; s != nil && !slices.Contains(srcs, s) {
			srcs = append(srcs, s)
		}
	})
	h.mu.Unlock()
	if len(srcs) == 0 {
		return
	}
	gc := encodeGC(node, below)
	for _, s := range srcs {
		_ = s.write(gc)
	}
}

// recordResult keeps a node's final state, unless the node stands failed:
// an incarnation that was declared dead reports nothing (crash semantics),
// and one that finishes in the instant between its kill and the kill
// order's arrival must not stand in for the resurrection the coordinator
// is about to wait for.
func (h *Hub) recordResult(res Result) {
	h.mu.Lock()
	if !h.failed[res.Node] {
		h.results[res.Node] = res
		h.resCond.Broadcast()
	}
	h.mu.Unlock()
}

// relayMigrate routes a cross-process node://K handoff to the session
// hosting K, rewriting the RPC id so the adopter's ack finds its way back
// to the migration source.
func (h *Hub) relayMigrate(origin *session, id uint32, src, dst, seen int64, image []byte) {
	h.mu.Lock()
	target := h.sessions[dst]
	var reason string
	switch {
	case h.failed[src]:
		// A zombie that has not yet read its kill order: its state dies
		// with it, as in process (cluster.Engine.handoff).
		reason = fmt.Sprintf("node %d is failed; its state cannot migrate out", src)
		target = nil
	case h.failed[dst]:
		reason = fmt.Sprintf("node %d is failed", dst)
		target = nil
	case target == nil:
		reason = fmt.Sprintf("no worker hosts node %d", dst)
	}
	var hubID uint32
	if target != nil {
		h.relayID++
		hubID = h.relayID
		h.relays[hubID] = relayOrigin{sess: origin, id: id}
	}
	h.mu.Unlock()
	h.ev().Emit(obs.EvHandoff, int(src), 0, 0, dst, int64(len(image)), reason)
	if target == nil {
		_ = origin.write(encodeAck(id, "transport: "+reason))
		return
	}
	if err := target.write(encodeMigrate(hubID, src, dst, seen, image)); err != nil {
		h.mu.Lock()
		delete(h.relays, hubID)
		h.mu.Unlock()
		_ = origin.write(encodeAck(id, "transport: handoff delivery failed: "+err.Error()))
	}
}

func (h *Hub) relayMigrateAck(hubID uint32, errStr string) {
	h.mu.Lock()
	origin, ok := h.relays[hubID]
	delete(h.relays, hubID)
	h.mu.Unlock()
	if ok {
		_ = origin.sess.write(encodeAck(origin.id, errStr))
	}
}
