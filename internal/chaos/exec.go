package chaos

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Outcome classifies one scenario execution.
type Outcome int

const (
	// OutcomeOK: the run completed and matched the sequential reference
	// bit-exactly.
	OutcomeOK Outcome = iota
	// OutcomeShort: a scripted event never triggered — the randomized
	// run finished before its trigger condition was reachable. Not a
	// bug; the scenario simply over-asked (the shrinker never has to
	// see these).
	OutcomeShort
	// OutcomeMismatch: the run completed but a node's result diverged
	// from the reference — the oracle failure the fuzzer hunts.
	OutcomeMismatch
	// OutcomeHang: the run exceeded its deadline.
	OutcomeHang
	// OutcomeError: the run failed before producing a verifiable result
	// (resurrection error, spawn error, …).
	OutcomeError
	// OutcomePanic: the run panicked.
	OutcomePanic
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeShort:
		return "short"
	case OutcomeMismatch:
		return "mismatch"
	case OutcomeHang:
		return "hang"
	case OutcomeError:
		return "error"
	case OutcomePanic:
		return "panic"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Failed reports whether the outcome is one the fuzzer must shrink and
// report.
func (o Outcome) Failed() bool {
	return o == OutcomeMismatch || o == OutcomeHang || o == OutcomeError || o == OutcomePanic
}

// Report is the result of executing one scenario.
type Report struct {
	Scenario *Scenario
	Outcome  Outcome
	Err      error
	Elapsed  time.Duration
}

// ExecConfig tunes scenario execution.
type ExecConfig struct {
	// Timeout bounds one scenario run (default 20s). A run that exceeds
	// it is classified OutcomeHang.
	Timeout time.Duration
	// Metrics, when set, receives the fuzzer's coverage counters
	// (chaos.scenarios, chaos.outcome.*, chaos.event.*, chaos.net.*).
	Metrics *obs.Registry
	// Logf, when set, receives per-scenario progress lines.
	Logf func(format string, args ...any)
}

// counter is nil-registry-safe.
func (c ExecConfig) count(name string, delta uint64) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Add(delta)
	}
}

// Execute runs one scenario against its bit-exact oracle and classifies
// the outcome. The run happens on a separate goroutine so a hang (or a
// panic on a runner goroutine that the runner surfaces as an error) is
// caught at the deadline rather than wedging the fuzzer.
func Execute(s *Scenario, cfg ExecConfig) *Report {
	if cfg.Timeout == 0 {
		cfg.Timeout = 20 * time.Second
	}
	start := time.Now()
	rep := &Report{Scenario: s}

	type done struct {
		err      error
		panicked bool
	}
	ch := make(chan done, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- done{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack()), panicked: true}
			}
		}()
		ch <- done{err: runScenario(s, cfg)}
	}()
	// A stopped timer, not time.After: under pre-1.23 timer semantics an
	// armed one stays in the runtime's timer heap for the full timeout.
	t := time.NewTimer(cfg.Timeout)
	defer t.Stop()

	select {
	case d := <-ch:
		rep.Elapsed = time.Since(start)
		switch {
		case d.panicked:
			rep.Outcome, rep.Err = OutcomePanic, d.err
		case d.err == nil:
			rep.Outcome = OutcomeOK
		case isShortErr(d.err):
			rep.Outcome, rep.Err = OutcomeShort, d.err
		case isMismatchErr(d.err):
			rep.Outcome, rep.Err = OutcomeMismatch, d.err
		case isHangErr(d.err):
			rep.Outcome, rep.Err = OutcomeHang, d.err
		default:
			rep.Outcome, rep.Err = OutcomeError, d.err
		}
	case <-t.C:
		rep.Elapsed = time.Since(start)
		rep.Outcome = OutcomeHang
		rep.Err = fmt.Errorf("scenario still running after %s", cfg.Timeout)
	}

	cfg.count("chaos.scenarios", 1)
	cfg.count("chaos.outcome."+rep.Outcome.String(), 1)
	cfg.count("chaos.app."+s.App, 1)
	if s.Script != nil {
		for _, ev := range s.Script.Events {
			kind := ev.Kind
			if kind == "" {
				kind = workload.KindFail
			}
			cfg.count("chaos.event."+kind, 1)
		}
	}
	return rep
}

// isShortErr matches the script driver's "event never completed" report:
// the generated run ended before the event's trigger was reachable.
func isShortErr(err error) bool {
	return err != nil && contains(err.Error(), "never completed")
}

// mismatchError marks an oracle divergence: the run completed but the
// workload's verifier rejected the result.
type mismatchError struct{ err error }

func (e mismatchError) Error() string { return e.err.Error() }
func (e mismatchError) Unwrap() error { return e.err }

func isMismatchErr(err error) bool {
	var m mismatchError
	return errors.As(err, &m)
}

// isHangErr matches in-run deadline expiry surfaced as an error.
func isHangErr(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return contains(msg, "timed out") || contains(msg, "timeout") || contains(msg, "deadline")
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// runScenario executes the scenario once: in-process when it has no
// network conditions, distributed (goroutine workers over a loopback
// hub, each link wrapped in the profile's fault injector) when it does.
func runScenario(s *Scenario, cfg ExecConfig) error {
	w, err := workload.Get(s.App)
	if err != nil {
		return err
	}
	p, err := workload.Normalize(w, s.Params)
	if err != nil {
		return err
	}
	timeout := cfg.Timeout - time.Second
	if timeout < time.Second {
		timeout = time.Second
	}

	if s.Net.Zero() {
		rc := workload.RunConfig{
			Script:  s.Script,
			Timeout: timeout,
			// Keep put-count trigger stalls well under the scenario
			// deadline so an unreachable trigger classifies as short, not
			// as a hang.
			StallTimeout: 2 * time.Second,
		}
		if s.Replicas > 0 {
			repl, err := replStore(s.Replicas)
			if err != nil {
				return err
			}
			rc.Store = repl
		}
		res, err := workload.Run(w, p, rc)
		if err != nil {
			return err
		}
		if err := w.Verify(p, res.Nodes); err != nil {
			return mismatchError{err}
		}
		return nil
	}

	var (
		specMu  sync.Mutex
		specs   []*workload.WorkerConfig
		over    bool // the run has returned: spawn nothing more
		workers sync.WaitGroup
	)
	// Join every worker incarnation before the verdict, so none is still
	// dialling the closed hub or store when the next scenario starts.
	defer func() {
		specMu.Lock()
		over = true
		specMu.Unlock()
		workers.Wait()
	}()
	spawn := func(join string, node int64, resume string) error {
		wc := &workload.WorkerConfig{
			Join: join, Node: node, Params: p, Resume: resume,
			Timeout:   timeout,
			RetryBase: 5 * time.Millisecond,
			Fault:     s.Net.Spec(),
		}
		specMu.Lock()
		defer specMu.Unlock()
		if over {
			return errors.New("chaos: scenario already over")
		}
		specs = append(specs, wc)
		workers.Add(1)
		go func() {
			defer workers.Done()
			if _, err := workload.RunWorker(w, *wc); err != nil && err != workload.ErrNodeFailed {
				if cfg.Logf != nil {
					cfg.Logf("chaos: seed %d: worker %d: %v", s.Seed, node, err)
				}
			}
		}()
		return nil
	}
	dc := workload.DistributedConfig{Spawn: spawn}
	if s.Replicas > 0 {
		repl, err := replStore(s.Replicas)
		if err != nil {
			return err
		}
		dc.Store = repl
	}
	res, err := workload.RunDistributed(w, p, s.Script, dc, timeout)
	if err != nil {
		return err
	}
	specMu.Lock()
	for _, wc := range specs {
		countNet(cfg, wc.Fault)
	}
	specMu.Unlock()
	if err := w.Verify(p, res.Nodes); err != nil {
		return mismatchError{err}
	}
	return nil
}

// countNet folds one link's fault counters into the coverage metrics.
func countNet(cfg ExecConfig, f *transport.FaultSpec) {
	if f == nil {
		return
	}
	cfg.count("chaos.net.dropped", uint64(f.Dropped()))
	cfg.count("chaos.net.duplicated", uint64(f.Duplicated()))
	cfg.count("chaos.net.held", uint64(f.Held()))
	cfg.count("chaos.net.reordered", uint64(f.Reordered()))
}

// replStore builds an n-way replicated in-memory store (majority write
// quorum) for storekill scenarios.
func replStore(n int) (migrate.Store, error) {
	replicas := make([]migrate.Store, n)
	for i := range replicas {
		replicas[i] = cluster.NewMemStore()
	}
	return store.NewReplicated(replicas, 0, store.Options{})
}
