package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("transport: client closed")

// FrameConn is the link a client speaks frames over. Tests wrap the real
// TCP framing with fault injectors (see FaultSpec). ReadFrameInto reads
// the next frame into buf's storage when it fits (frame.ReadInto); a nil
// buf gives a fresh slice. WriteFrame must not keep b after it returns:
// the client builds message frames in one reused buffer.
type FrameConn interface {
	ReadFrameInto(buf []byte) ([]byte, error)
	WriteFrame(b []byte) error
}

// ClientConfig configures a worker's connection to the coordinator hub.
type ClientConfig struct {
	// Addr is the hub address to join.
	Addr string
	// Node is the node this worker hosts.
	Node int64
	// Router is the worker's local router; inbound traffic is injected
	// into it (deliveries wake parked receivers, ROLL advances the epoch).
	// The caller marks its hosted nodes local and installs the client as
	// the uplink after Dial returns.
	Router *msg.Router
	// OnFail is invoked when the coordinator declares this worker's node
	// failed. The worker is expected to die: in a real deployment the
	// process exits; in-process tests tear the engine down.
	OnFail func()
	// OnAdopt, when set, accepts inbound node://K handoffs: it must
	// install the image as the process for dst without running it, and
	// return the function that starts it (cluster.Engine.Adopt's shape).
	// The client announces ownership of dst to the hub and acknowledges
	// the handoff first, then calls start: nothing the adopted process
	// does can reach the hub ahead of the acknowledgement.
	OnAdopt func(dst, seen int64, img *wire.Image) (start func(), err error)
	// Resurrect marks this worker as a resurrection from checkpoint: its
	// HELLO may clear the node's failed mark at the hub. A fresh or
	// rejoining incarnation of a failed node is re-killed instead.
	Resurrect bool
	// Wrap, when set, wraps each new connection's framing — the fault
	// injection hook.
	Wrap func(FrameConn) FrameConn
	// DialAttempts bounds connect/reconnect tries (default 8, full-jitter
	// exponential backoff from RetryBase, capped at RetryMax).
	DialAttempts int
	// RetryBase is the initial backoff window (default 25ms, doubling).
	RetryBase time.Duration
	// RetryMax caps the backoff window (default 1s). Each retry sleeps a
	// uniformly random duration inside the current window ("full jitter"),
	// so a hub restart with hundreds of workers — or hundreds of mojd
	// tenants — does not produce a synchronized reconnect stampede that
	// knocks the hub over again the moment it comes back.
	RetryMax time.Duration
	// RPCTimeout bounds each handoff round trip (default 30s).
	RPCTimeout time.Duration
	// Trace, when set, records this worker's wire activity (frame
	// send/recv, outbound replay on reconnect, inbound ROLL) on the
	// "wire/<node>" stream.
	Trace *obs.Tracer
}

// Client is the worker end of the cluster transport: a msg.Uplink whose
// remote side is the coordinator hub. All writes go through one
// connection; if it drops, the client redials, re-HELLOs, and replays its
// keyed outbound buffer while the hub replays the inbound one — the
// keyed-idempotent contract makes the overlap harmless.
type Client struct {
	cfg ClientConfig

	mu      sync.Mutex
	conn    FrameConn
	raw     net.Conn
	gen     int                    // connection generation, for reader teardown
	out     msgBuf                 // dst -> src -> tag -> encoded part (replay buffer)
	frame   []byte                 // scratch for SendParts' frames
	owned   []int64                // nodes adopted via handoff; re-announced on reconnect
	pending map[uint32]chan []byte // rpc id -> its reply frame
	nextID  uint32
	closed  bool

	storePort uint32        // the hub's store server, from the latest WELCOME
	readDone  chan struct{} // closed when the current connection's reader exits

	// ev is the worker's wire trace stream; nil when tracing is off, in
	// which case every Emit is a single branch.
	ev *obs.Stream

	wg sync.WaitGroup
}

// Dial connects a worker to the hub and completes the HELLO/WELCOME
// handshake; the router's rollback epoch is synced before Dial returns,
// so a resurrected node can immediately mark its checkpoint as the
// rollback point (Router.Restore).
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Router == nil {
		return nil, errors.New("transport: ClientConfig.Router is required")
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 8
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = cfg.RetryBase
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 30 * time.Second
	}
	c := &Client{
		cfg:     cfg,
		out:     make(msgBuf),
		pending: make(map[uint32]chan []byte),
	}
	if cfg.Trace != nil {
		c.ev = cfg.Trace.Stream(fmt.Sprintf("wire/%d", cfg.Node))
	}
	c.mu.Lock()
	err := c.ensureLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close tears the connection down for good. The link closes in order:
// the client stops writing, then reads until the hub hangs up (at most a
// second), so the hub has read every frame sent before Close — an Exit
// above all. A socket closed with inbound bytes still unread is reset,
// and a reset loses whatever the peer had not read yet.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	if cw, ok := c.raw.(interface{ CloseWrite() error }); ok {
		// Flush a fault injector's withheld frames first (teardownLocked).
		if cl, ok := c.conn.(io.Closer); ok {
			_ = cl.Close()
		}
		if cw.CloseWrite() == nil {
			done := c.readDone
			c.mu.Unlock()
			t := time.NewTimer(time.Second)
			select {
			case <-done:
			case <-t.C:
			}
			t.Stop()
			c.mu.Lock()
		}
	}
	c.teardownLocked()
	c.mu.Unlock()
	c.wg.Wait()
}

// teardownLocked drops the current connection and fails outstanding RPCs
// (their callers retry on the next connection).
func (c *Client) teardownLocked() {
	if c.raw != nil {
		// Close the wrapped framing first: a fault injector holding frames
		// (reorder window, latency skew) flushes them into the still-open
		// socket instead of silently losing them with the link.
		if cl, ok := c.conn.(io.Closer); ok {
			_ = cl.Close()
		}
		_ = c.raw.Close()
		c.raw = nil
		c.conn = nil
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// ensureLocked (re)establishes the connection: dial with backoff, HELLO,
// WELCOME (epoch sync), outbound replay, reader launch.
func (c *Client) ensureLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	if c.conn != nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			// Sleep without blocking readers delivering into the router.
			c.mu.Unlock()
			time.Sleep(backoffDelay(attempt, c.cfg.RetryBase, c.cfg.RetryMax, rand.Int63n))
			c.mu.Lock()
			if c.closed {
				return ErrClientClosed
			}
			if c.conn != nil { // another writer reconnected meanwhile
				return nil
			}
		}
		if err := c.connectLocked(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("transport: cannot reach hub %s: %w", c.cfg.Addr, lastErr)
}

// backoffDelay computes the sleep before reconnect attempt n (n ≥ 1):
// a uniformly random duration in [0, window) where the window doubles
// from base and is capped at max — AWS-style "full jitter". The cap
// bounds worst-case reconnect latency; the jitter decorrelates the
// retry clocks of workers that all lost the same hub at the same
// instant, spreading their redials across the whole window instead of
// hammering the recovering hub in lockstep. rnd is rand.Int63n-shaped
// (injected so the schedule is unit-testable).
func backoffDelay(attempt int, base, max time.Duration, rnd func(int64) int64) time.Duration {
	window := base
	for i := 1; i < attempt; i++ {
		window *= 2
		if window >= max || window <= 0 { // <= 0: shift overflow
			window = max
			break
		}
	}
	if window > max {
		window = max
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(rnd(int64(window)))
}

func (c *Client) connectLocked() error {
	raw, err := net.DialTimeout("tcp", c.cfg.Addr, 10*time.Second)
	if err != nil {
		return err
	}
	var fc FrameConn = frame.NewConn(raw)
	if c.cfg.Wrap != nil {
		fc = c.cfg.Wrap(fc)
	}
	if err := fc.WriteFrame(encodeHello(c.cfg.Node, c.cfg.Resurrect)); err != nil {
		_ = raw.Close()
		return err
	}
	welcome, err := fc.ReadFrameInto(nil)
	if err != nil || len(welcome) == 0 || welcome[0] != fWelcome {
		_ = raw.Close()
		return fmt.Errorf("transport: bad welcome (%v)", err)
	}
	epoch, storePort, err := decodeWelcome(welcome)
	if err != nil {
		_ = raw.Close()
		return err
	}
	c.cfg.Router.SetEpoch(epoch)
	c.storePort = storePort
	c.raw = raw
	c.conn = fc
	c.gen++
	// Re-announce ownership of adopted nodes: the hub dropped the old
	// session's registrations, and without this their border traffic
	// would buffer forever.
	for _, node := range c.owned {
		if err := fc.WriteFrame(encodeInt(fOwn, node)); err != nil {
			c.teardownLocked()
			return err
		}
	}
	// Replay the outbound keyed buffer: anything the old connection may
	// have lost in flight is re-delivered, each part under the source
	// that sent it; duplicates overwrite equals.
	replayed := 0
	for dst := range c.out {
		for _, f := range c.out.frames(dst) {
			if err := fc.WriteFrame(f); err != nil {
				c.teardownLocked()
				return err
			}
			replayed++
		}
	}
	if replayed > 0 {
		c.ev.Emit(obs.EvFrameReplay, int(c.cfg.Node), uint64(epoch), 0, int64(replayed), 0, "")
	}
	c.readDone = make(chan struct{})
	c.wg.Add(1)
	go c.readLoop(fc, c.gen, c.readDone)
	return nil
}

// readLoop dispatches inbound frames until its connection dies; it then
// kicks a reconnect so a worker parked in a receive (sending nothing) is
// not stranded. A message frame's parts go into the mailbox as they
// arrived, which copies them before SendBatch returns. Message and GC
// frames are read into the loop's reused buffer, since
// nothing of them outlives their dispatch; any other frame may (an ack
// goes to its caller, an image is adopted off the loop), so the next
// read after one gets a fresh buffer.
func (c *Client) readLoop(fc FrameConn, gen int, done chan struct{}) {
	defer c.wg.Done()
	defer close(done)
	var buf []byte
	for {
		b, err := fc.ReadFrameInto(buf)
		if err != nil {
			c.mu.Lock()
			if c.gen == gen && !c.closed {
				c.teardownLocked()
				err := c.ensureLocked()
				c.mu.Unlock()
				if err != nil {
					// The hub is gone for good: release any parked
					// receiver so the process can observe shutdown, and
					// record the transport failure so later sends surface
					// it instead of an orderly-looking router close.
					c.cfg.Router.CloseErr(fmt.Errorf("transport: hub %s unreachable: %w", c.cfg.Addr, err))
				}
			} else {
				c.mu.Unlock()
			}
			return
		}
		if len(b) == 0 {
			continue
		}
		buf = nil
		switch b[0] {
		case fMsg:
			buf = b[:0]
			src, dst, parts, n, err := scanMsg(b)
			if err == nil && c.cfg.Router.Local(dst) {
				c.ev.Emit(obs.EvFrameRecv, int(dst), 0, 0, src, int64(n), "msg")
				_ = c.cfg.Router.SendBatch(src, dst, parts)
			}
		case fGC:
			buf = b[:0]
			// A destination committed past below: the parts sent to it
			// under older tags will never be asked for again.
			if node, below, err := decodeGC(b); err == nil {
				c.mu.Lock()
				c.out[node].Prune(below)
				c.mu.Unlock()
			}
		case fRoll:
			if epoch, err := decodeInt(b); err == nil {
				c.ev.Emit(obs.EvMsgRoll, int(c.cfg.Node), uint64(epoch), 0, 0, 0, "wire")
				c.cfg.Router.SetEpoch(epoch)
			}
		case fFail:
			if c.cfg.OnFail != nil {
				c.cfg.OnFail()
			}
		case fAck:
			// The reply leads with the rpc id; Handoff decodes the rest.
			d := &dec{b: b, off: 1}
			if id := d.u32(); d.err == nil {
				c.mu.Lock()
				ch := c.pending[id]
				delete(c.pending, id)
				c.mu.Unlock()
				if ch != nil {
					ch <- b
				}
			}
		case fMigrate:
			id, _, dst, seen, image, err := decodeMigrate(b)
			if err != nil {
				continue
			}
			// Adoption unpacks and verifies a whole process image; do it
			// off the read loop so border traffic keeps flowing.
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.adopt(id, dst, seen, image)
			}()
		}
	}
}

func (c *Client) adopt(id uint32, dst, seen int64, image []byte) {
	var (
		errStr string
		start  func()
	)
	if c.cfg.OnAdopt == nil {
		errStr = "transport: worker does not adopt migrations"
	} else if img, err := wire.DecodeImage(image); err != nil {
		errStr = err.Error()
	} else if start, err = c.cfg.OnAdopt(dst, seen, img); err != nil {
		errStr = err.Error()
	}
	if errStr == "" {
		// Claim the node before acking so the hub routes its traffic here
		// by the time the source resumes the survivors; remember it so a
		// reconnect re-claims it.
		c.mu.Lock()
		c.owned = append(c.owned, dst)
		c.mu.Unlock()
		_ = c.writeFrame(encodeInt(fOwn, dst))
	}
	_ = c.writeFrame(encodeAck(id, errStr))
	if start != nil {
		start()
	}
}

// writeFrame sends one frame, reconnecting on a dead link.
func (c *Client) writeFrame(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(func() []byte { return b })
}

// writeLocked writes the frame that frame builds, reconnecting on a dead
// link. frame runs after each (re)connect: a reconnect sleeps with c.mu
// released, and another writer may use the client's scratch meanwhile.
func (c *Client) writeLocked(frame func() []byte) error {
	for attempt := 0; attempt < 3; attempt++ {
		if err := c.ensureLocked(); err != nil {
			return err
		}
		if err := c.conn.WriteFrame(frame()); err == nil {
			return nil
		}
		c.teardownLocked()
	}
	return fmt.Errorf("transport: write to hub %s kept failing", c.cfg.Addr)
}

// SendParts implements msg.Uplink: keep the parts for replay, then frame
// them in the client's scratch buffer and forward the frame.
func (c *Client) SendParts(src, dst int64, parts []byte, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	c.ev.Emit(obs.EvFrameSend, int(src), 0, 0, dst, int64(n), "msg")
	c.out.put(src, dst, parts)
	return c.writeLocked(func() []byte {
		c.frame = append(appendMsgHead(c.frame[:0], src, dst, n), parts...)
		return c.frame
	})
}

// GC implements msg.Uplink: the node committed past `below`; the hub's
// buffer for it can shrink. The hub passes the GC on to every worker that
// sent the node messages, and each drops those parts from its own replay
// buffer (readLoop's fGC case).
func (c *Client) GC(node, below int64) error {
	return c.writeFrame(encodeGC(node, below))
}

// Exit reports a node's final state to the coordinator.
func (c *Client) Exit(res Result) error {
	return c.writeFrame(encodeExit(res))
}

// Handoff implements the engine's RemoteHandoff hook: ship a packed image
// to whichever worker hosts dst and wait for its adoption ack, retrying
// across reconnects (a handoff is idempotent). Each attempt carries a
// freshly allocated rpc id.
func (c *Client) Handoff(src, dst int64, img *wire.Image, seen int64) error {
	image := wire.EncodeImage(img)
	deadline := time.Now().Add(c.cfg.RPCTimeout)
	for {
		c.mu.Lock()
		if err := c.ensureLocked(); err != nil {
			c.mu.Unlock()
			return err
		}
		c.nextID++
		id := c.nextID
		ch := make(chan []byte, 1)
		c.pending[id] = ch
		if err := c.conn.WriteFrame(encodeMigrate(id, src, dst, seen, image)); err != nil {
			c.teardownLocked() // closes ch: the request retries below
		}
		c.mu.Unlock()

		// Stop the timer on every path, never time.After: under pre-1.23
		// timer semantics (a main module declaring go < 1.23) an armed
		// timer stays in the runtime's timer heap until its deadline, and
		// a heap full of armed timers also keeps stopped ones, and all
		// their callbacks reference, from being swept: a finished run's
		// hub and store would stay reachable for the whole RPC timeout.
		t := time.NewTimer(time.Until(deadline))
		select {
		case rep, alive := <-ch:
			t.Stop()
			if alive {
				_, errStr, err := decodeAck(rep)
				if err == nil && errStr != "" {
					err = errors.New(errStr)
				}
				return err
			}
			// The connection died before the reply; retry on a new one.
		case <-t.C:
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: handoff timed out after %s", c.cfg.RPCTimeout)
		}
	}
}

// StoreAddr returns the address of the checkpoint store served beside
// the hub: the host this client dialed, with the port of the latest
// WELCOME.
func (c *Client) StoreAddr() string {
	host, _, _ := net.SplitHostPort(c.cfg.Addr)
	c.mu.Lock()
	port := c.storePort
	c.mu.Unlock()
	return net.JoinHostPort(host, strconv.FormatUint(uint64(port), 10))
}
