// Package ckpt is the checkpoint pipeline: the capture/commit engine the
// cluster runtime routes every checkpoint:// migrate through. It supports
// three modes.
//
//	full  — the classic path: synchronous full image per checkpoint,
//	        encoded straight from the heap arena while the node is
//	        quiesced (byte-identical to encoding migrate.Pack's image
//	        by reference; the default).
//	delta — synchronous incremental checkpoints: a full image opens a
//	        chain, then each checkpoint writes only the heap blocks
//	        dirtied since the previous one; a full image is forced every
//	        K deltas to bound recovery chains.
//	async — delta capture plus write-behind commit: the node resumes
//	        execution the moment its state is captured, while a
//	        background committer encodes and writes, double-buffered (at
//	        most one commit in flight and one queued per node — a node
//	        that checkpoints faster than the store can absorb blocks).
//
// Code by reference: every image names its program by SHA-256 instead of
// carrying it (wire.CodePart.ByReference). The committer writes each
// program once per store, as an immutable code object under
// migrate.CodeName, before the first image that names it, and remembers
// which it has written. The paper's checkpoint is an executable file;
// here it is the head image plus the code object it names, and
// migrate.FetchImage (so LoadCheckpoint and every resurrection) resolves
// both. On kv_failover the program was 99.5% of every image.
//
// Durability watermark: chain members are written under immutable names
// ("<head>@<seq>"); the head name holds a tiny ref record pointing at the
// newest member and is published only after that member's payload is
// durable. Readers of the head (Fail/Resurrect, -resume, rollback
// recovery) therefore always observe the last durable checkpoint and
// never an in-flight one. A node killed mid-commit simply loses that
// commit: its chain's head still names the previous durable member.
package ckpt

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Mode selects the checkpoint pipeline behaviour.
type Mode int

const (
	// ModeFull is the synchronous full-image path (default).
	ModeFull Mode = iota
	// ModeDelta writes synchronous incremental checkpoints.
	ModeDelta
	// ModeAsync writes incremental checkpoints on a background committer.
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeDelta:
		return "delta"
	case ModeAsync:
		return "async"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a -ckpt flag value. The empty string is ModeFull.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "full":
		return ModeFull, nil
	case "delta":
		return ModeDelta, nil
	case "async":
		return ModeAsync, nil
	default:
		return ModeFull, fmt.Errorf(`ckpt: unknown mode %q (want "full", "delta" or "async")`, s)
	}
}

// DefaultK is the delta-chain bound: a full image is forced every K
// deltas so recovery never replays an unbounded chain.
const DefaultK = 8

// fullScratch is a full-mode checkpoint's encode buffer and heap view.
// Both are recycled across intervals through fullPool (Checkpoint may run
// concurrently for different nodes, so the scratch cannot live on the
// Committer itself): migrate.Store forbids Put from retaining the bytes,
// and every interval writes an image of roughly the same size.
type fullScratch struct {
	buf  []byte
	view heap.Snapshot
}

var fullPool = sync.Pool{New: func() any { return new(fullScratch) }}

// fullHint is the size of the last full image. Every GC empties
// fullPool, and a fresh scratch sized from the hint costs one allocation
// instead of a chain of doublings, so allocation per checkpoint does not
// depend on how often the collector runs.
var fullHint atomic.Int64

// Options configures a Committer.
type Options struct {
	// Mode selects the pipeline behaviour (default ModeFull).
	Mode Mode
	// K bounds delta chains (default DefaultK). Ignored in ModeFull.
	K int
	// OnPruneError, when set, observes every failed best-effort delete of
	// a superseded chain member. Pruning stays best-effort — a failure
	// only leaves dead objects behind — but the failures are no longer
	// silent: they also count in Stats.PruneFailures.
	OnPruneError func(name string, err error)
	// NoInlinePrune disables the best-effort inline prune on published
	// full images. Deployments running the store tier's retention GC
	// (internal/store.RunGC) set it: the GC recomputes the live set from
	// durable state and sweeps authoritatively, so the inline path would
	// only duplicate deletes.
	NoInlinePrune bool
	// Trace, when set, records commit-side pipeline events (member put,
	// watermark publish) on the "ckpt/<head>" streams. Capture-side events
	// are the engine's: only it knows the node's logical time.
	Trace *obs.Tracer
}

// Stats counts pipeline activity. All times are cumulative nanoseconds.
//
// CaptureNs is the quiesced time before the store is touched and
// CommitNs the store side. In full mode the image is encoded straight
// from the heap while the node is quiesced, so CaptureNs is GC + encode,
// CommitNs is the one Put, and PauseNs is their sum. In delta and async
// modes CaptureNs is GC + the copying snapshot and CommitNs is encode +
// member put + head publish; delta's PauseNs covers both, async's only
// the capture (its commit runs in the background).
type Stats struct {
	Checkpoints   uint64 // checkpoints captured
	Fulls         uint64 // full images among them
	Deltas        uint64 // delta images among them
	BytesWritten  uint64 // store bytes written (payloads + head refs)
	CodeObjects   uint64 // code objects written (not in BytesWritten)
	CodeBytes     uint64 // their bytes
	PauseNs       uint64 // time the node was quiesced in the checkpoint path
	CaptureNs     uint64 // quiesced time before the store write (see above)
	CommitNs      uint64 // store-side time (see above; background in async)
	Aborted       uint64 // commits discarded because the owner failed first
	Recoveries    uint64 // checkpoint restores observed
	RecoveryNs    uint64 // chain fetch + unpack time
	Pruned        uint64 // superseded chain members deleted
	PruneFailures uint64 // best-effort deletes that failed (objects leaked)
}

// job is one captured checkpoint awaiting encode + write.
type job struct {
	head   string
	member string
	seq    int
	full   bool
	owner  int64
	img    *wire.Image
	delta  *wire.DeltaImage
}

// memberRec tracks a chain member this committer wrote, for pruning.
type memberRec struct {
	name string
	seq  int
}

// chain is the per-checkpoint-name pipeline state. One node owns a chain
// (checkpoint names are per-node); ownership can move on adoption.
type chain struct {
	owner   int64
	seq     int    // next member sequence number
	base    string // newest member name; "" forces a full image
	deltas  int    // deltas since the last full image
	err     error  // sticky commit/capture failure
	aborted bool   // owner failed; pending commits must not publish

	queue   []job
	running bool
	cond    *sync.Cond // on Committer.mu

	// members lists chain members this committer wrote and has not yet
	// pruned; publishing a full image makes everything older dead weight.
	members []memberRec

	// pending counts captured-but-not-yet-settled commits (queued or in
	// flight); afterDurable holds waits to release once it reaches zero
	// with nothing aborted or failed — the durability-watermark hook side
	// effects like message-buffer GC hang off.
	pending      int
	afterDurable []*durableWait
}

// durableWait is one AfterOwnerDurable callback, possibly attached to
// several chains of the same owner: it fires only when the last of them
// settles cleanly, and is dropped if any of them aborts or fails (its
// checkpoint never published, so its side effects must not happen).
type durableWait struct {
	remaining int
	dropped   bool
	fn        func()
}

// Committer drives checkpoint captures and commits against a store.
// A single Committer serves every node of an engine.
type Committer struct {
	store migrate.Store
	opts  Options

	mu     sync.Mutex
	chains map[string]*chain
	stats  Stats

	// codeMu serializes code-object writes, so a checkpoint that needs a
	// program another node is writing waits for that write instead of
	// repeating it. code holds the programs whose code objects are
	// durable in the store.
	codeMu sync.Mutex
	code   map[[sha256.Size]byte]bool
}

// New creates a committer over store. Delta members are ordinary Puts:
// each delta image names its chain predecessor itself, so the store
// needs no chain-aware extension.
func New(store migrate.Store, opts Options) *Committer {
	if opts.K <= 0 {
		opts.K = DefaultK
	}
	return &Committer{
		store:  store,
		opts:   opts,
		chains: make(map[string]*chain),
		code:   make(map[[sha256.Size]byte]bool),
	}
}

// putCode makes prog's code object durable in the store unless this
// committer already has. Every image names its program by hash, so the
// object must be durable before the first image that names it. A failed
// write fails the checkpoint that needed it, and the next one retries.
func (c *Committer) putCode(prog *fir.Program) error {
	data, hash := migrate.ProgramCode(prog)
	c.codeMu.Lock()
	defer c.codeMu.Unlock()
	if c.code[hash] {
		return nil
	}
	name := migrate.CodeName(hash)
	if err := c.store.Put(name, data); err != nil {
		return fmt.Errorf("ckpt: writing code object %s: %w", name, err)
	}
	c.code[hash] = true
	c.mu.Lock()
	c.stats.CodeObjects++
	c.stats.CodeBytes += uint64(len(data))
	c.mu.Unlock()
	return nil
}

// Mode returns the configured pipeline mode.
func (c *Committer) Mode() Mode { return c.opts.Mode }

// traceStream returns the commit-side trace stream for head, nil when
// tracing is off (one branch on the untraced path).
func (c *Committer) traceStream(head string) *obs.Stream {
	if c.opts.Trace == nil {
		return nil
	}
	return c.opts.Trace.Stream("ckpt/" + head)
}

// Stats returns a copy of the activity counters.
func (c *Committer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// RecordRecovery accounts one checkpoint restore (chain fetch + unpack).
func (c *Committer) RecordRecovery(d time.Duration) {
	c.mu.Lock()
	c.stats.Recoveries++
	c.stats.RecoveryNs += uint64(d.Nanoseconds())
	c.mu.Unlock()
}

// MemberName returns the immutable store name of chain member seq of
// head.
func MemberName(head string, seq int) string {
	return fmt.Sprintf("%s@%d", head, seq)
}

// probeSeq returns the next free member sequence number for head, so a
// new incarnation (a resurrected worker process with a fresh committer)
// never reuses a name an older incarnation may still be writing. A List
// failure is an error, not zero: starting over at @0 could overwrite a
// live chain's root while the durable head still resolves through it —
// silent state corruption on the next resurrect.
func probeSeq(store migrate.Store, head string) (int, error) {
	names, err := store.List()
	if err != nil {
		return 0, fmt.Errorf("ckpt: probing sequence for %q: %w", head, err)
	}
	next := 0
	for _, n := range names {
		rest, ok := strings.CutPrefix(n, head+"@")
		if !ok {
			continue
		}
		if seq, err := strconv.Atoi(rest); err == nil && seq+1 > next {
			next = seq + 1
		}
	}
	return next, nil
}

// chainFor returns (creating if needed) the chain for head, owned by
// owner. A failed sequence probe surfaces as an error and leaves no
// chain behind, so the next checkpoint re-probes instead of running
// with a possibly colliding sequence.
func (c *Committer) chainFor(head string, owner int64) (*chain, error) {
	c.mu.Lock()
	ch := c.chains[head]
	if ch == nil {
		ch = &chain{owner: owner, cond: sync.NewCond(&c.mu)}
		c.chains[head] = ch
		c.mu.Unlock()
		// Probe outside the lock: over a remote store this is an RPC.
		seq, err := probeSeq(c.store, head)
		c.mu.Lock()
		if err != nil {
			delete(c.chains, head)
			c.mu.Unlock()
			return nil, err
		}
		if seq > ch.seq {
			ch.seq = seq
		}
	}
	ch.owner = owner
	c.mu.Unlock()
	return ch, nil
}

// Checkpoint runs one checkpoint for the process behind req, writing
// under the head name. owner is the cluster node the process runs as
// (AbortOwner/ResumeOwner key on it). It is called on the node's own
// goroutine: the time spent here is exactly the checkpoint pause.
func (c *Committer) Checkpoint(req *rt.MigrationRequest, head string, owner int64) error {
	t0 := time.Now()
	if err := c.putCode(req.Rt.Program()); err != nil {
		return err
	}

	if c.opts.Mode == ModeFull {
		// The image is encoded straight from the heap into the recycled
		// buffer: the node stays quiesced until Put returns, so nothing
		// needs a copy of the heap to outlive the pause.
		sc := fullPool.Get().(*fullScratch)
		defer fullPool.Put(sc)
		if sc.buf == nil {
			n := fullHint.Load()
			sc.buf = make([]byte, 0, n+n/8)
		}
		data, err := migrate.AppendPack(sc.buf[:0], &sc.view, req.Rt, req.Label, req.FnIndex, req.Args)
		sc.view.Release()
		sc.buf = data[:0]
		if err != nil {
			return err
		}
		fullHint.Store(int64(len(data)))
		capture := time.Since(t0)
		if err := c.store.Put(head, data); err != nil {
			return err
		}
		pause := time.Since(t0)
		if s := c.traceStream(head); s != nil {
			// In full mode the head write is both the member and the
			// watermark: one put that is immediately the published state.
			s.Emit(obs.EvCkptPut, int(owner), 0, 0, 0, int64(len(data)), head)
			s.Emit(obs.EvCkptPublish, int(owner), 0, 0, 0, 0, head)
		}
		c.mu.Lock()
		c.stats.Checkpoints++
		c.stats.Fulls++
		c.stats.BytesWritten += uint64(len(data))
		c.stats.CaptureNs += uint64(capture.Nanoseconds())
		c.stats.CommitNs += uint64((pause - capture).Nanoseconds())
		c.stats.PauseNs += uint64(pause.Nanoseconds())
		c.mu.Unlock()
		return nil
	}

	h := req.Rt.Heap()
	h.EnableDeltaTracking()
	ch, err := c.chainFor(head, owner)
	if err != nil {
		return err
	}

	c.mu.Lock()
	// Double-buffer backpressure: at most one queued job on top of the
	// one the worker is processing.
	for ch.err == nil && len(ch.queue) >= 1 {
		ch.cond.Wait()
	}
	// Re-checked after the wait: a commit may have failed while this
	// capture was blocked, and a poisoned chain must not grow.
	if ch.err != nil {
		err := ch.err
		c.mu.Unlock()
		return fmt.Errorf("ckpt: chain %q is poisoned by an earlier failure: %w", head, err)
	}
	full := ch.base == "" || ch.deltas >= c.opts.K || !h.DeltaReady()
	seq := ch.seq
	ch.seq++
	base := ch.base
	member := MemberName(head, seq)
	ch.base = member
	if full {
		ch.deltas = 0
	} else {
		ch.deltas++
	}
	c.mu.Unlock()

	j := job{head: head, member: member, seq: seq, full: full, owner: owner}
	if !full {
		j.delta, err = migrate.PackDelta(req.Rt, req.Label, req.FnIndex, req.Args, base, seq)
		// A nil delta means the baseline vanished between the decision and
		// the capture (cannot happen on a single goroutine, but stay
		// defensive): capture a full image instead.
		j.full = err == nil && j.delta == nil
	}
	if j.full {
		if j.img, err = migrate.PackByReference(req.Rt, req.Label, req.FnIndex, req.Args); err == nil {
			h.MarkSnapshotBase()
		}
	}
	capture := time.Since(t0)
	if err != nil {
		c.mu.Lock()
		if ch.err == nil {
			ch.err = err
		}
		c.mu.Unlock()
		return err
	}

	c.mu.Lock()
	c.stats.Checkpoints++
	if j.full {
		c.stats.Fulls++
	} else {
		c.stats.Deltas++
	}
	c.stats.CaptureNs += uint64(capture.Nanoseconds())
	c.mu.Unlock()

	if c.opts.Mode == ModeDelta {
		err := c.commit(ch, j)
		pause := time.Since(t0)
		c.mu.Lock()
		c.stats.PauseNs += uint64(pause.Nanoseconds())
		c.mu.Unlock()
		return err
	}

	// Async: hand the captured state to the background committer and
	// resume the node immediately. The snapshot inside the job is a deep
	// copy — the heap may mutate freely while the commit is in flight.
	c.mu.Lock()
	ch.queue = append(ch.queue, j)
	ch.pending++
	if !ch.running {
		ch.running = true
		go c.worker(ch)
	}
	pause := time.Since(t0)
	c.stats.PauseNs += uint64(pause.Nanoseconds())
	c.mu.Unlock()
	return nil
}

// worker drains one chain's queue; it exits when the queue is empty and
// restarts on the next enqueue, so idle committers hold no goroutine.
func (c *Committer) worker(ch *chain) {
	for {
		c.mu.Lock()
		if len(ch.queue) == 0 {
			ch.running = false
			ch.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		j := ch.queue[0]
		ch.queue = ch.queue[1:]
		// A failed owner's commits are discarded; so are commits queued
		// behind a failed one — writing a delta whose base never landed
		// would point the durability watermark at a chain with a hole.
		skip := ch.aborted || ch.err != nil
		ch.cond.Broadcast() // free the backpressure slot
		c.mu.Unlock()
		if skip {
			c.mu.Lock()
			c.stats.Aborted++
			c.settleLocked(ch)
			c.mu.Unlock()
			continue
		}
		_ = c.commit(ch, j)
		c.mu.Lock()
		c.settleLocked(ch)
		c.mu.Unlock()
	}
}

// settleLocked retires one pending commit; when the chain fully settles,
// its durability waits release (and fire once their last chain has). A
// chain that aborted (owner failed) or failed (commit error — its head
// ref was never published either) drops its waits instead: those side
// effects belong to checkpoints that never became the watermark, and the
// resurrected incarnation will redo them.
func (c *Committer) settleLocked(ch *chain) {
	if ch.pending > 0 {
		ch.pending--
	}
	if ch.aborted || ch.err != nil {
		for _, w := range ch.afterDurable {
			w.dropped = true
		}
		ch.afterDurable = nil
		return
	}
	if ch.pending == 0 && len(ch.afterDurable) > 0 {
		waits := ch.afterDurable
		ch.afterDurable = nil
		var fns []func()
		for _, w := range waits {
			w.remaining--
			if w.remaining == 0 && !w.dropped {
				fns = append(fns, w.fn)
			}
		}
		if len(fns) > 0 {
			c.mu.Unlock()
			for _, fn := range fns {
				fn()
			}
			c.mu.Lock()
		}
	}
}

// AfterOwnerDurable runs fn once every checkpoint the owner has captured
// so far — across all of its chains — is durable and published;
// immediately when nothing is in flight (always the case in the
// synchronous modes). If any of the owner's chains has failed or its
// owner was declared failed, fn is dropped entirely: a zombie
// incarnation that outruns its kill by a quantum may still be
// checkpointing, but those checkpoints' head refs are withheld, so side
// effects keyed on them (message-buffer pruning) must die with the
// zombie — the resurrected incarnation redoes them against the last
// published checkpoint.
func (c *Committer) AfterOwnerDurable(owner int64, fn func()) {
	c.mu.Lock()
	w := &durableWait{fn: fn}
	for _, ch := range c.chains {
		if ch.owner != owner {
			continue
		}
		if ch.aborted || ch.err != nil {
			c.mu.Unlock()
			return
		}
		if ch.pending > 0 {
			ch.afterDurable = append(ch.afterDurable, w)
			w.remaining++
		}
	}
	attached := w.remaining // w is shared with settleLocked once attached
	c.mu.Unlock()
	if attached == 0 {
		fn()
	}
}

// commit encodes and writes one captured checkpoint: the immutable chain
// member first, then — only if the owner has not failed meanwhile — the
// head ref that makes it the durable watermark.
func (c *Committer) commit(ch *chain, j job) error {
	t0 := time.Now()
	var data []byte
	if j.full {
		data = wire.EncodeImage(j.img)
	} else {
		data = wire.EncodeDeltaImage(j.delta)
	}
	err := c.store.Put(j.member, data)
	written := 0
	published := false
	if err == nil {
		written += len(data)
		if s := c.traceStream(j.head); s != nil {
			full := int64(0)
			if j.full {
				full = 1
			}
			s.Emit(obs.EvCkptPut, int(j.owner), 0, uint64(j.seq), full, int64(len(data)), j.member)
		}
		c.mu.Lock()
		ch.members = append(ch.members, memberRec{name: j.member, seq: j.seq})
		aborted := ch.aborted
		c.mu.Unlock()
		if !aborted {
			ref := wire.EncodeRef(j.member)
			if err = c.store.Put(j.head, ref); err == nil {
				written += len(ref)
				published = true
				if s := c.traceStream(j.head); s != nil {
					s.Emit(obs.EvCkptPublish, int(j.owner), 0, uint64(j.seq),
						0, time.Since(t0).Nanoseconds(), j.member)
				}
			}
		}
	}
	c.mu.Lock()
	if err != nil && ch.err == nil {
		ch.err = err
	}
	c.stats.BytesWritten += uint64(written)
	c.stats.CommitNs += uint64(time.Since(t0).Nanoseconds())
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ckpt: committing %q: %w", j.member, err)
	}
	if published && j.full && !c.opts.NoInlinePrune {
		c.prune(ch, j.seq)
	}
	return nil
}

// prune deletes chain members older than a just-published full image:
// the head now resolves without them. Best-effort — a failure merely
// leaves dead objects behind. Failures are counted
// (Stats.PruneFailures) and reported through Options.OnPruneError so a
// leaking store is visible instead of silently filling up.
func (c *Committer) prune(ch *chain, fullSeq int) {
	c.mu.Lock()
	var dead []string
	kept := ch.members[:0]
	for _, m := range ch.members {
		if m.seq < fullSeq {
			dead = append(dead, m.name)
		} else {
			kept = append(kept, m)
		}
	}
	ch.members = kept
	c.mu.Unlock()
	var pruned, failed uint64
	for _, name := range dead {
		if err := c.store.Delete(name); err != nil {
			failed++
			if c.opts.OnPruneError != nil {
				c.opts.OnPruneError(name, err)
			}
		} else {
			pruned++
		}
	}
	if pruned+failed > 0 {
		c.mu.Lock()
		c.stats.Pruned += pruned
		c.stats.PruneFailures += failed
		c.mu.Unlock()
	}
}

// AbortOwner marks every chain owned by node as failed: queued commits
// are discarded and an in-flight commit will not publish its head ref.
// The chain stays refusing work until ResumeOwner. Called by the engine
// when a node fails; never blocks.
func (c *Committer) AbortOwner(node int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.chains {
		if ch.owner == node {
			ch.aborted = true
		}
	}
}

// ResumeOwner re-opens the chains of a resurrected node: the abort and
// any sticky error are cleared and the next checkpoint is forced full
// (the restored heap has no delta baseline; the chain restarts from a
// fresh root, with sequence numbers that never collide with the dead
// incarnation's).
func (c *Committer) ResumeOwner(node int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.chains {
		if ch.owner == node {
			ch.aborted = false
			ch.err = nil
			ch.base = ""
			ch.deltas = 0
		}
	}
}

// Drain blocks until no commit for head is queued or in flight. Readers
// that must observe a stable head (Resurrect) call this first.
func (c *Committer) Drain(head string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.chains[head]
	if ch == nil {
		return
	}
	for ch.running || len(ch.queue) > 0 {
		ch.cond.Wait()
	}
}

// DrainOwner drains every chain owned by node.
func (c *Committer) DrainOwner(node int64) {
	c.mu.Lock()
	var heads []string
	for head, ch := range c.chains {
		if ch.owner == node {
			heads = append(heads, head)
		}
	}
	c.mu.Unlock()
	for _, head := range heads {
		c.Drain(head)
	}
}
