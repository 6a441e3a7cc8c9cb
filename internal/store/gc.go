package store

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// Retention GC: the committer's inline prune is best-effort — it runs
// only on a just-published full, only over members the live committer
// remembers, and dies with the process. The GC here is authoritative
// and restartable: it recomputes the live set from durable state alone
// (head refs resolved through migrate.ResolveChain) and deletes chain
// members no resolution can reach.
//
// Safety against racing an in-flight commit: the committer writes a
// member BEFORE the head ref that makes it reachable, so a freshly
// listed member with seq beyond the resolved head may become live a
// moment later. The sweep therefore deletes a member only when its seq
// is *below the resolved chain's root* — the chain now resolves from a
// newer full, so nothing can re-reference it (sequence numbers are
// never reused: probeSeq starts past the max even after resurrection).
// Members above the root, orphan groups with no head object yet, and
// groups whose head fails to resolve are all kept conservatively.

// GCStats is one sweep's outcome.
type GCStats struct {
	Heads      int    // chain groups examined
	Live       int    // members kept as part of a resolved chain
	Swept      int    // objects deleted
	SweptBytes uint64 // bytes reclaimed (as measured before delete)
	Failures   int    // unresolvable heads + failed deletes
}

// member is one parsed "<head>@<seq>" name.
type member struct {
	name string
	seq  int
}

// parseMember splits a chain-member name on its final "@"; ok is false
// for head names and unrelated objects.
func parseMember(name string) (head string, seq int, ok bool) {
	i := strings.LastIndex(name, "@")
	if i <= 0 || i == len(name)-1 {
		return "", 0, false
	}
	seq, err := strconv.Atoi(name[i+1:])
	if err != nil || seq < 0 {
		return "", 0, false
	}
	return name[:i], seq, true
}

// RunGC performs one retention sweep over s — the same logical store
// handle the committer writes through, so compression and replication
// are transparent. Counters land in opts.Registry (store.gc.*), one
// EvStoreGC trace event summarizes the sweep.
func RunGC(s migrate.Store, opts Options) (GCStats, error) {
	var stats GCStats
	names, err := s.List()
	if err != nil {
		return stats, err
	}
	present := make(map[string]bool, len(names))
	groups := make(map[string][]member)
	for _, n := range names {
		present[n] = true
		if head, seq, ok := parseMember(n); ok {
			groups[head] = append(groups[head], member{name: n, seq: seq})
		}
	}

	var dead []member
	for head, members := range groups {
		stats.Heads++
		if !present[head] {
			// No head object yet: the chain's first publish may be in
			// flight. Everything stays.
			stats.Live += len(members)
			continue
		}
		chain, err := migrate.ResolveChain(s, head)
		if err != nil {
			stats.Failures++
			stats.Live += len(members)
			continue
		}
		rootSeq := -1
		for _, cn := range chain {
			h, seq, ok := parseMember(cn)
			if ok && h == head {
				rootSeq = seq
				break
			}
		}
		if rootSeq < 0 {
			// The head resolves without member-form names (full-mode
			// image under the head name). Any members present are from a
			// mode we cannot attribute — keep them.
			stats.Live += len(members)
			continue
		}
		for _, m := range members {
			if m.seq < rootSeq {
				dead = append(dead, m)
			} else {
				stats.Live++
			}
		}
	}

	var swept, sweptBytes, fails *obs.Counter
	var trace *obs.Stream
	if opts.Registry != nil {
		swept = opts.Registry.Counter("store.gc.swept")
		sweptBytes = opts.Registry.Counter("store.gc.swept_bytes")
		fails = opts.Registry.Counter("store.gc.failures")
		opts.Registry.Counter("store.gc.runs").Inc()
	}
	if opts.Trace != nil {
		trace = opts.Trace.Stream("store")
	}
	for _, m := range dead {
		var size int
		if data, err := s.Get(m.name); err == nil {
			size = len(data)
		}
		if err := s.Delete(m.name); err != nil {
			stats.Failures++
			count(fails, 1)
			continue
		}
		stats.Swept++
		stats.SweptBytes += uint64(size)
		count(swept, 1)
		count(sweptBytes, uint64(size))
	}
	trace.Emit(obs.EvStoreGC, 0, 0, 0, int64(stats.Swept), int64(stats.SweptBytes), "")
	return stats, nil
}

// GC runs RunGC on a fixed interval until Stop.
type GC struct {
	stop chan struct{}
	done chan struct{}
}

// StartGC launches a background retention sweeper over s.
func StartGC(s migrate.Store, interval time.Duration, opts Options) *GC {
	if interval <= 0 {
		interval = time.Minute
	}
	g := &GC{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if _, err := RunGC(s, opts); err != nil && opts.Registry != nil {
					opts.Registry.Counter("store.gc.failures").Inc()
				}
			}
		}
	}()
	return g
}

// Stop halts the sweeper and waits for an in-progress sweep to finish.
func (g *GC) Stop() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}
