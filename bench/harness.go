package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	// iterTimeout bounds one run; a run that exceeds it counts as failed.
	iterTimeout = 10 * time.Second
	// A run sets up between minSetups and maxSetups times, stopping once
	// setupBudget is spent, so setup_s is a median.
	minSetups   = 5
	maxSetups   = 12
	setupBudget = 2 * time.Second
	// warmupRuns are the discarded runs that end each set-up: they fill
	// the engine artifact cache and the checkpoint buffer pools.
	warmupRuns = 2
)

// variant is one way of running a shape: the parameters plus what the
// harness attaches. The zero extras are the plain, untraced run.
type variant struct {
	p         workload.Params
	prog      *fir.Program
	noFaults  bool     // drop the fault script
	inProcess bool     // run a distributed shape through workload.Run
	spans     *spanRec // record harness spans
	obs       bool     // attach RunConfig.Metrics and RunConfig.Trace
	keepStore bool     // leave the store open for probes; caller cleans up
}

// iterOut is everything the harness observed about one run.
type iterOut struct {
	res      *workload.Result
	runMs    float64
	cpuMs    float64
	allocMB  float64
	verifyUs float64
	counts   storeCounts    // what the store probe saw
	store    *countingStore // the run's store, kept only for variant.keepStore
	dir      string         // its zdir directory ("" for a mem store)
	counters map[string]any // obs.Registry snapshot (variant.obs)
	events   []obs.Event    // obs.Tracer events (variant.obs)
	cleanup  func()
}

// bench drives one shape inside one process.
type bench struct {
	sh     *shape
	tmp    string // parent of the per-run zdir directories
	iter   int    // runs started, for script rotation and span ids
	failed []string
}

func newBench(sh *shape, outDir string) (*bench, error) {
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmp, sh.name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{sh: sh, tmp: tmp}, nil
}

func (b *bench) close() { os.RemoveAll(b.tmp) }

// base is the shape's standard variant around a compiled program.
func (b *bench) base(prog *fir.Program) variant {
	p := b.sh.p
	p.Workers = 2
	p.Engine = engineName
	return variant{p: p, prog: prog}
}

// setup does what a run needs before its first timed iteration: compile
// the MojC program, build the sequential reference (grid memoizes its
// own, so verifying inside the window is then a lookup), and warm up.
func (b *bench) setup() (variant, error) {
	prog, err := b.sh.w.Program(b.sh.p)
	if err != nil {
		return variant{}, fmt.Errorf("bench: compiling %s: %w", b.sh.name, err)
	}
	v := b.base(prog)
	b.sh.w.Reference(v.p)
	for i := 0; i < warmupRuns; i++ {
		out, err := b.runOnce(v)
		if err != nil {
			return variant{}, fmt.Errorf("bench: %s warm-up run: %w", b.sh.name, err)
		}
		out.cleanup()
	}
	return v, nil
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocNow is the cumulative bytes allocated on the Go heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket
// every run.
func allocNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runOnce executes one verified run of v. The returned error means the
// run failed (error, timeout, wrong answer, or a fault script that did
// not complete); timings are taken around the run only — creating and
// removing the store directory and verifying are outside them.
func (b *bench) runOnce(v variant) (*iterOut, error) {
	it := b.iter
	b.iter++
	out := &iterOut{cleanup: func() {}}

	var backing migrate.Store = cluster.NewMemStore()
	if b.sh.zdir {
		dir, err := os.MkdirTemp(b.tmp, "store-")
		if err != nil {
			return nil, err
		}
		out.dir = dir
		out.cleanup = func() { os.RemoveAll(dir) }
		if backing, err = store.Open("zdir:"+dir, store.Options{}); err != nil {
			out.cleanup()
			return nil, err
		}
	}
	root := v.spans.start("iteration", -1, it)
	defer v.spans.end(root)
	runSpan := v.spans.start("workload.run", root, it)
	cs := &countingStore{inner: backing, spans: v.spans, parent: runSpan, iter: it}

	var script *workload.FaultScript
	if len(b.sh.scripts) > 0 && !v.noFaults {
		script = b.sh.scripts[it%len(b.sh.scripts)]
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if v.obs {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(1 << 14)
	}

	alloc0, cpu0 := allocNow(), cpuNow()
	var res *workload.Result
	var err error
	if b.sh.dist && !v.inProcess {
		res, err = b.runDistributed(v, cs, tracer)
	} else {
		res, err = workload.Run(b.sh.w, v.p, workload.RunConfig{
			Script: script, Timeout: iterTimeout, Program: v.prog,
			Store: cs, Trace: tracer, Metrics: reg,
		})
	}
	cpu1, alloc1 := cpuNow(), allocNow()
	v.spans.end(runSpan)
	if err != nil {
		out.cleanup()
		return nil, err
	}
	out.res = res
	out.runMs = float64(res.Elapsed.Nanoseconds()) / 1e6
	out.cpuMs = float64((cpu1 - cpu0).Nanoseconds()) / 1e6
	out.allocMB = float64(alloc1-alloc0) / 1e6
	out.counts = cs.counts()
	if v.obs {
		out.counters = reg.Snapshot()
		out.events = tracer.Snapshot()
	}

	vs := v.spans.start("workload.verify", root, it)
	t0 := time.Now()
	err = b.sh.w.Verify(v.p, res.Nodes)
	out.verifyUs = float64(time.Since(t0).Nanoseconds()) / 1e3
	v.spans.end(vs)
	if err == nil && script != nil && res.Resurrections != len(script.Events) {
		err = fmt.Errorf("bench: %d resurrections, the script has %d events", res.Resurrections, len(script.Events))
	}
	if err != nil {
		out.cleanup()
		return nil, err
	}
	if v.keepStore {
		out.store = cs
	} else {
		out.cleanup()
		out.cleanup = func() {}
	}
	return out, nil
}

// runDistributed is the coordinator plus one worker goroutine per node
// over real loopback TCP — the arrangement the application tests use. It
// returns only after every worker goroutine has ended.
func (b *bench) runDistributed(v variant, st migrate.Store, tracer *obs.Tracer) (*workload.Result, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		workers []error
	)
	spawn := func(join string, node int64, resume string) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := workload.RunWorker(b.sh.w, workload.WorkerConfig{
				Join: join, Node: node, Params: v.p, Resume: resume,
				Timeout: iterTimeout, RetryBase: 5 * time.Millisecond, Trace: tracer,
			})
			if err != nil && !errors.Is(err, workload.ErrNodeFailed) {
				mu.Lock()
				workers = append(workers, fmt.Errorf("worker %d: %w", node, err))
				mu.Unlock()
			}
		}()
		return nil
	}
	res, err := workload.RunDistributed(b.sh.w, v.p, nil,
		workload.DistributedConfig{Store: st, Spawn: spawn, Trace: tracer}, iterTimeout)
	wg.Wait()
	if err == nil && len(workers) > 0 {
		err = workers[0]
	}
	return res, err
}

// window runs v back to back until stop says so, and returns the runs
// that passed. Failed runs are recorded on the bench and excluded from
// every timing.
func (b *bench) window(v variant, stop func(done int) bool) []*iterOut {
	var outs []*iterOut
	for n := 0; !stop(n); n++ {
		out, err := b.runOnce(v)
		if err != nil {
			b.failed = append(b.failed, err.Error())
			fmt.Fprintf(os.Stderr, "bench: %s run %d FAILED: %v\n", b.sh.name, b.iter-1, err)
			continue
		}
		outs = append(outs, out)
	}
	return outs
}

// forSeconds stops a window once d has passed since its first run
// started, after at least min runs.
func forSeconds(d time.Duration, min int) func(int) bool {
	var deadline time.Time
	return func(done int) bool {
		if deadline.IsZero() {
			deadline = time.Now().Add(d)
		}
		return done >= min && !time.Now().Before(deadline)
	}
}

// forRuns stops a window after n runs.
func forRuns(n int) func(int) bool { return func(done int) bool { return done >= n } }

// runMsOf projects the run times of a window.
func runMsOf(outs []*iterOut) []float64 {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = o.runMs
	}
	return vs
}

var calibSink atomic.Uint64

// calibrate times a fixed pure-Go spin loop, in ms: the machine's speed
// right now, independent of the program under test. The loop runs on
// every scheduler thread at once and the slowest one counts, so a core
// that something else is using shows up too.
func calibrate() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for i := 0; i < 40_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			calibSink.Add(x)
		}(88172645463325252 + uint64(g))
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// settle waits until the calibration loop reads the same (within 3%) three
// times in a row — medians drift by tens of percent for a while after a
// build — or until limit has passed, and returns the last reading.
func settle(limit time.Duration) float64 {
	deadline := time.Now().Add(limit)
	var last []float64
	for {
		last = append(last, calibrate())
		if n := len(last); n >= 3 {
			lo, hi := last[n-3], last[n-3]
			for _, c := range last[n-2:] {
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			if hi <= lo*1.03 || !time.Now().Before(deadline) {
				return last[n-1]
			}
		}
	}
}
