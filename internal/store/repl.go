package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// N-way replication. Every object is wrapped in a version envelope
// before fan-out, because two name classes in the checkpoint protocol
// are *mutable*: head refs (rewritten at every delta publish) and
// full-mode images (overwritten under one name each checkpoint). After
// a partial write — a replica dying mid-commit — surviving replicas can
// hold different generations of the same name, and only the version
// lets Get pick the newest without parsing checkpoint internals.
//
// Write quorum W = N/2+1 (majority) unless overridden; read quorum
// R = N-W+1, so any read set intersects every acknowledged write set.
// Put returns success at W acks and lets stragglers finish in the
// background; Get gathers from all replicas, requires R responses
// (data or a definitive not-exist), returns the max version, and
// read-repairs replicas observed stale or missing.

// replMagic prefixes a version envelope: magic + 8-byte big-endian
// version + payload.
const replMagic = "#!mcc-rv1\n"

// ErrReplicaDown reports an operation against a replica killed by fault
// injection (KillReplica) — it stands in for a crashed store server.
var ErrReplicaDown = errors.New("store: replica down")

// ErrNoQuorum reports that too few replicas answered to satisfy the
// operation's quorum.
var ErrNoQuorum = errors.New("store: quorum not reached")

// Replicated fans a migrate.Store over N replicas with quorum
// acknowledgement and read-repair.
type Replicated struct {
	replicas []migrate.Store
	w        int // write quorum
	r        int // read quorum

	mu      sync.Mutex
	down    []bool // fault injection: replica i refuses all ops
	version uint64 // monotonic envelope version (time-seeded)

	bg sync.WaitGroup // straggler writes after quorum ack

	puts     *obs.Counter
	putFails *obs.Counter // individual replica put failures
	repairs  *obs.Counter
	trace    *obs.Stream
}

// NewReplicated builds a replica set. quorum 0 means majority (N/2+1);
// an explicit quorum must satisfy 1 <= quorum <= N.
func NewReplicated(replicas []migrate.Store, quorum int, opts Options) (*Replicated, error) {
	n := len(replicas)
	if n < 1 {
		return nil, errors.New("store: replicated store needs at least one replica")
	}
	if quorum == 0 {
		quorum = n/2 + 1
	}
	if quorum < 1 || quorum > n {
		return nil, fmt.Errorf("store: write quorum %d out of range for %d replicas", quorum, n)
	}
	r := &Replicated{
		replicas: replicas,
		w:        quorum,
		r:        n - quorum + 1,
		down:     make([]bool, n),
		// Seeding the version counter with wall time keeps versions
		// monotonic across process restarts sharing the same replica
		// directories (a restarted writer must supersede its
		// predecessor's envelopes).
		version: uint64(time.Now().UnixNano()),
	}
	if opts.Registry != nil {
		r.puts = opts.Registry.Counter("store.repl.puts")
		r.putFails = opts.Registry.Counter("store.repl.put_failures")
		r.repairs = opts.Registry.Counter("store.repl.repairs")
	}
	if opts.Trace != nil {
		r.trace = opts.Trace.Stream("store")
	}
	return r, nil
}

// NReplicas returns the replica count.
func (r *Replicated) NReplicas() int { return len(r.replicas) }

// WriteQuorum returns W.
func (r *Replicated) WriteQuorum() int { return r.w }

// KillReplica makes replica i refuse every operation with
// ErrReplicaDown until ReviveReplica — fault injection for tests and
// fault scripts.
func (r *Replicated) KillReplica(i int) {
	r.mu.Lock()
	r.down[i] = true
	r.mu.Unlock()
}

// ReviveReplica brings a killed replica back. Its contents are whatever
// they were at kill time; read-repair re-converges it.
func (r *Replicated) ReviveReplica(i int) {
	r.mu.Lock()
	r.down[i] = false
	r.mu.Unlock()
}

// ReplicaDown reports replica i's fault-injection state.
func (r *Replicated) ReplicaDown(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.down[i]
}

// Wait blocks until background straggler writes have drained — tests
// call it before inspecting replica contents directly.
func (r *Replicated) Wait() { r.bg.Wait() }

// replica returns the store for index i, or ErrReplicaDown.
func (r *Replicated) replica(i int) (migrate.Store, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down[i] {
		return nil, ErrReplicaDown
	}
	return r.replicas[i], nil
}

func (r *Replicated) nextVersion() uint64 {
	r.mu.Lock()
	r.version++
	v := r.version
	r.mu.Unlock()
	return v
}

// envelope wraps payload with the version header.
func envelope(version uint64, payload []byte) []byte {
	out := make([]byte, len(replMagic)+8+len(payload))
	copy(out, replMagic)
	binary.BigEndian.PutUint64(out[len(replMagic):], version)
	copy(out[len(replMagic)+8:], payload)
	return out
}

// openEnvelope splits an envelope; data without the magic (written by a
// bare backend later joined into a replica set) is version 0.
func openEnvelope(data []byte) (version uint64, payload []byte) {
	if !bytes.HasPrefix(data, []byte(replMagic)) || len(data) < len(replMagic)+8 {
		return 0, data
	}
	return binary.BigEndian.Uint64(data[len(replMagic):]), data[len(replMagic)+8:]
}

// Put fans the enveloped object to every replica, returning as soon as
// the write quorum has acknowledged. Remaining replicas finish in the
// background (Wait drains them). The caller's buffer is not retained:
// the envelope is a fresh allocation.
func (r *Replicated) Put(name string, data []byte) error {
	enc := envelope(r.nextVersion(), data)
	n := len(r.replicas)
	results := make(chan error, n)
	r.bg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer r.bg.Done()
			rep, err := r.replica(i)
			if err == nil {
				err = rep.Put(name, enc)
			}
			if err != nil {
				count(r.putFails, 1)
			}
			results <- err
		}(i)
	}
	acks, fails := 0, 0
	var firstErr error
	for acks < r.w && fails <= n-r.w {
		if err := <-results; err != nil {
			fails++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			acks++
		}
	}
	if acks < r.w {
		return fmt.Errorf("store: put %q: %d/%d acks (need %d): %w: %w",
			name, acks, n, r.w, ErrNoQuorum, firstErr)
	}
	count(r.puts, 1)
	return nil
}

// getResult is one replica's answer during a Get gather.
type getResult struct {
	idx      int
	version  uint64
	payload  []byte
	notExist bool
	err      error
}

// Get gathers the object from every live replica, needs readQuorum
// definitive answers (payload or not-exist), returns the max-version
// payload, and read-repairs any replica that returned a stale version
// or not-exist.
func (r *Replicated) Get(name string) ([]byte, error) {
	n := len(r.replicas)
	ch := make(chan getResult, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			rep, err := r.replica(i)
			if err != nil {
				ch <- getResult{idx: i, err: err}
				return
			}
			data, err := rep.Get(name)
			switch {
			case err == nil:
				v, p := openEnvelope(data)
				ch <- getResult{idx: i, version: v, payload: p}
			case errors.Is(err, os.ErrNotExist):
				ch <- getResult{idx: i, notExist: true}
			default:
				ch <- getResult{idx: i, err: err}
			}
		}(i)
	}
	var results []getResult
	definitive := 0
	for i := 0; i < n; i++ {
		res := <-ch
		results = append(results, res)
		if res.err == nil {
			definitive++
		}
	}
	if definitive < r.r {
		return nil, fmt.Errorf("store: get %q: %d/%d replicas answered (need %d): %w",
			name, definitive, n, r.r, ErrNoQuorum)
	}
	best := -1
	for i, res := range results {
		if res.err != nil || res.notExist {
			continue
		}
		if best < 0 || res.version > results[best].version {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("store: checkpoint %q: %w", name, os.ErrNotExist)
	}
	winner := results[best]
	r.repair(name, winner, results)
	return winner.payload, nil
}

// repair re-pushes the winning version to replicas that answered with a
// stale version or not-exist (never to ones that errored — they may be
// down and will converge on revival via the next repair).
func (r *Replicated) repair(name string, winner getResult, results []getResult) {
	var enc []byte
	for _, res := range results {
		if res.err != nil || res.idx == winner.idx {
			continue
		}
		if !res.notExist && res.version >= winner.version {
			continue
		}
		if enc == nil {
			enc = envelope(winner.version, winner.payload)
		}
		idx := res.idx
		r.bg.Add(1)
		go func() {
			defer r.bg.Done()
			rep, err := r.replica(idx)
			if err == nil {
				err = rep.Put(name, enc)
			}
			if err == nil {
				count(r.repairs, 1)
				r.trace.Emit(obs.EvStoreRepair, idx, 0, 0, int64(winner.version), int64(len(winner.payload)), name)
			}
		}()
	}
}

// List unions names across replicas, requiring readQuorum responses so
// a name acknowledged at write quorum is always visible.
func (r *Replicated) List() ([]string, error) {
	n := len(r.replicas)
	type listResult struct {
		names []string
		err   error
	}
	ch := make(chan listResult, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			rep, err := r.replica(i)
			if err != nil {
				ch <- listResult{err: err}
				return
			}
			names, err := rep.List()
			ch <- listResult{names: names, err: err}
		}(i)
	}
	seen := make(map[string]bool)
	ok := 0
	for i := 0; i < n; i++ {
		res := <-ch
		if res.err != nil {
			continue
		}
		ok++
		for _, name := range res.names {
			seen[name] = true
		}
	}
	if ok < r.r {
		return nil, fmt.Errorf("store: list: %d/%d replicas answered (need %d): %w", ok, n, r.r, ErrNoQuorum)
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes the name from every replica, succeeding at write
// quorum (a replica that never had the name counts as deleted).
func (r *Replicated) Delete(name string) error {
	n := len(r.replicas)
	ch := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			rep, err := r.replica(i)
			if err == nil {
				err = rep.Delete(name)
			}
			ch <- err
		}(i)
	}
	acks := 0
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-ch; err == nil || errors.Is(err, os.ErrNotExist) {
			acks++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if acks < r.w {
		return fmt.Errorf("store: delete %q: %d/%d acks (need %d): %w: %w",
			name, acks, n, r.w, ErrNoQuorum, firstErr)
	}
	return nil
}
