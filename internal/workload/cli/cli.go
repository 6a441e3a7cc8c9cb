// Package cli implements the mojrun command: run any registered
// workload on the in-process simulated cluster or distributed across OS
// processes, drive it through a declarative fault script, and verify
// the result bit-exactly against the workload's sequential reference.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// failFlags collects repeatable -fail specifications.
type failFlags struct {
	events []workload.FaultEvent
}

func (f *failFlags) String() string {
	var parts []string
	for _, e := range f.events {
		parts = append(parts, fmt.Sprintf("%d@%d", e.Node, e.AfterCheckpoints))
	}
	return strings.Join(parts, ",")
}

func (f *failFlags) Set(spec string) error {
	ev, err := workload.ParseFailSpec(spec)
	if err != nil {
		return err
	}
	f.events = append(f.events, ev)
	return nil
}

// options is the parsed flag set.
type options struct {
	app     string
	list    bool
	params  workload.Params
	fails   failFlags
	script  string
	timeout time.Duration
	verbose bool
	trace   string
	metrics string
	cpuprof string

	distributed bool
	coordOnly   bool
	listen      string
	storeDir    string
	storeSpec   string
	storeGate   int
	storeGC     time.Duration
	join        string
	node        int64
	resume      string
}

// storeOpenSpec resolves the effective -store spec: -store wins, the
// legacy -storedir is sugar for "dir:PATH", and the empty string means
// "no shared store configured" (runners default to a private MemStore).
func (o *options) storeOpenSpec() string {
	if o.storeSpec != "" {
		return o.storeSpec
	}
	if o.storeDir != "" {
		return "dir:" + o.storeDir
	}
	return ""
}

// openStore builds the checkpoint store tier from the flags, nil when
// none is configured and no gate is requested.
func openStore(opt options, tracer *obs.Tracer, reg *obs.Registry) (migrate.Store, error) {
	spec := opt.storeOpenSpec()
	if spec == "" && opt.storeGate == 0 {
		return nil, nil
	}
	return store.Open(spec, store.Options{
		Registry:  reg,
		Trace:     tracer,
		GateLimit: opt.storeGate,
	})
}

// prog names the binary in messages.
const prog = "mojrun"

// Main is mojrun's entry point. It returns the process exit code; a
// worker ordered to die by the coordinator's fault injection returns 3
// (simulated crash, not an error).
func Main(argv []string, stdout, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.app, "app", "grid", "workload to run (see -list)")
	fs.BoolVar(&opt.list, "list", false, "list registered workloads and exit")
	fs.IntVar(&opt.params.Nodes, "nodes", 0, "cluster nodes (0 = workload default)")
	fs.IntVar(&opt.params.Size, "size", 0, "per-node problem size (0 = workload default)")
	fs.IntVar(&opt.params.Aux, "aux", 0, "workload-specific secondary knob (0 = workload default)")
	fs.IntVar(&opt.params.Steps, "steps", 0, "timesteps / rounds / batches (0 = workload default)")
	fs.IntVar(&opt.params.CheckpointInterval, "ck", 0, "checkpoint interval (0 = workload default)")
	fs.IntVar(&opt.params.Workers, "workers", 0, "concurrently executing node quanta (0 = unbounded)")
	fs.StringVar(&opt.params.Ckpt, "ckpt", "", `checkpoint pipeline mode: "full" (default), "delta", or "async"`)
	fs.IntVar(&opt.params.CkptK, "ckptk", 0, "force a full image every K delta checkpoints (0 = pipeline default)")
	fs.StringVar(&opt.params.Engine, "engine", "", "execution engine: "+engine.Usage())
	fs.Var(&opt.fails, "fail", `inject a failure: "node@checkpoints[@delay]", e.g. "1@2" (repeatable)`)
	fs.StringVar(&opt.script, "script", "", "fault-scenario script file (fail/storekill/partition/crashresurrect lines; see README)")
	fs.DurationVar(&opt.timeout, "timeout", 2*time.Minute, "run timeout")
	fs.BoolVar(&opt.verbose, "v", false, "print per-node halt codes")
	fs.StringVar(&opt.trace, "trace", "", `write the run's event trace as JSONL to this file ("-" for stdout; see cmd/mojtrace)`)
	fs.StringVar(&opt.metrics, "metrics", "", `write the run's metrics snapshot as JSON to this file ("-" for stdout)`)
	fs.StringVar(&opt.cpuprof, "cpuprofile", "", "write a CPU profile of the run to this file (flushed even when the run fails)")

	fs.BoolVar(&opt.distributed, "distributed", false, "spawn one worker OS process per node over loopback TCP")
	fs.BoolVar(&opt.coordOnly, "coordinator", false, "coordinate externally started -join workers")
	fs.StringVar(&opt.listen, "listen", "127.0.0.1:0", "coordinator listen address")
	fs.StringVar(&opt.storeDir, "storedir", "", `directory for the shared checkpoint store (sugar for -store dir:PATH)`)
	fs.StringVar(&opt.storeSpec, "store", "", `checkpoint store backend spec: "mem", "dir:PATH", "zdir:PATH" (compressed at rest), "tcp:ADDR", or "repl:N,SPEC,..." (N-way quorum replication)`)
	fs.IntVar(&opt.storeGate, "storegate", 0, "bound concurrent checkpoint Puts through a FIFO admission gate (0 = unbounded)")
	fs.DurationVar(&opt.storeGC, "storegc", 0, "run background retention GC over the store at this interval (0 = off; disables the committer's inline prune)")
	fs.StringVar(&opt.join, "join", "", "run as a worker joined to this coordinator address")
	fs.Int64Var(&opt.node, "node", 0, "node id hosted by this worker (with -join)")
	fs.StringVar(&opt.resume, "resume", "", "checkpoint name to resurrect from (with -join)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	// Reject an unknown -engine before any work starts; the error lists
	// what is registered.
	if opt.params.Engine != "" {
		if _, err := engine.Get(opt.params.Engine); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			return 2
		}
	}

	if opt.list {
		for _, name := range workload.Names() {
			w, err := workload.Get(name)
			if err != nil {
				continue
			}
			d := w.Defaults()
			fmt.Fprintf(stdout, "%-10s %s\n%-10s defaults: nodes %d, size %d, aux %d, steps %d, ck %d\n",
				name, w.Description(), "", d.Nodes, d.Size, d.Aux, d.Steps, d.CheckpointInterval)
		}
		fmt.Fprintf(stdout, "engines:\n")
		for _, name := range engine.Names() {
			f, err := engine.Get(name)
			if err != nil {
				continue
			}
			def := ""
			if name == engine.DefaultName {
				def = " (default)"
			}
			fmt.Fprintf(stdout, "%-10s %s%s\n", name, f.Description(), def)
		}
		return 0
	}

	w, err := workload.Get(opt.app)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}

	if opt.join != "" {
		return runWorker(w, opt, stdout, stderr)
	}

	script, err := buildScript(opt)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	p, err := workload.Normalize(w, opt.params)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}

	mode := p.Ckpt
	if mode == "" {
		mode = "full"
	}
	eng := p.Engine
	if eng == "" {
		eng = engine.DefaultName
	}
	fmt.Fprintf(stdout, "%s: nodes %d, size %d, aux %d, steps %d, checkpoint every %d (%s), workers %d, engine %s\n",
		opt.app, p.Nodes, p.Size, p.Aux, p.Steps, p.CheckpointInterval, mode, p.Workers, eng)
	if script != nil {
		for _, ev := range script.Events {
			switch {
			case ev.Kind == workload.KindStoreKill && ev.NoRevive:
				fmt.Fprintf(stdout, "%s: will kill store replica %d after store write %d and leave it down\n",
					opt.app, ev.Node, ev.AfterCheckpoints)
			case ev.Kind == workload.KindStoreKill:
				fmt.Fprintf(stdout, "%s: will kill store replica %d after store write %d and revive it after %s\n",
					opt.app, ev.Node, ev.AfterCheckpoints, ev.Delay)
			default:
				fmt.Fprintf(stdout, "%s: will kill node %d after checkpoint %d and resurrect it after %s\n",
					opt.app, ev.Node, ev.AfterCheckpoints, ev.Delay)
			}
		}
	}

	// Observability sinks are strictly opt-in: without the flags both
	// stay nil and every instrumented site is a predictable nop.
	var tracer *obs.Tracer
	var reg *obs.Registry
	if opt.trace != "" {
		tracer = obs.NewTracer(0)
	}
	if opt.metrics != "" {
		reg = obs.NewRegistry()
	}

	// The checkpoint store tier: built from -store/-storedir/-storegate,
	// shared by the in-process and distributed paths. Retention GC, when
	// enabled, sweeps in the background during the run and once more at
	// the end, and replaces the committer's inline prune.
	st, err := openStore(opt, tracer, reg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	var gcStop func()
	if opt.storeGC > 0 {
		if st == nil {
			fmt.Fprintf(stderr, "%s: -storegc needs a shared store (-store or -storedir)\n", prog)
			return 1
		}
		g := store.StartGC(st, opt.storeGC, store.Options{Registry: reg, Trace: tracer})
		gcStop = g.Stop
	}

	// The CPU profile brackets the run itself (not flag parsing or store
	// setup) and is stopped — and therefore flushed — before any early
	// error return below, so a failed run still leaves a usable profile.
	if opt.cpuprof != "" {
		f, perr := os.Create(opt.cpuprof)
		if perr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, perr)
			return 1
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			fmt.Fprintf(stderr, "%s: %v\n", prog, perr)
			return 1
		}
		defer f.Close()
	}

	var res *workload.Result
	switch {
	case opt.distributed, opt.coordOnly:
		res, err = runCoordinator(w, p, script, opt, st, tracer, stderr)
	default:
		res, err = workload.Run(w, p, workload.RunConfig{
			Script: script, Timeout: opt.timeout, Trace: tracer, Metrics: reg,
			Store: st, NoInlinePrune: opt.storeGC > 0,
		})
	}
	if opt.cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if gcStop != nil {
		gcStop()
		stats, gerr := store.RunGC(st, store.Options{Registry: reg, Trace: tracer})
		if gerr != nil {
			fmt.Fprintf(stderr, "%s: final retention sweep: %v\n", prog, gerr)
		} else if opt.verbose {
			fmt.Fprintf(stdout, "%s: retention GC: %d live, %d swept (%d bytes), %d failures\n",
				opt.app, stats.Live, stats.Swept, stats.SweptBytes, stats.Failures)
		}
	}
	// Flush the artifacts even when the run errored — a trace of a
	// failed run is exactly what the analyzer is for.
	if derr := dumpObs(tracer, reg, opt, stdout); derr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, derr)
		if err == nil {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}

	verr := w.Verify(p, res.Nodes)
	if opt.verbose || verr != nil {
		want := w.Reference(p)
		for _, n := range sortedNodes(want) {
			got, ok := res.Nodes[n]
			state := "missing"
			if ok {
				state = fmt.Sprintf("%d", got.Halt)
			}
			match := "ok"
			if !ok || got.Halt != want[n] {
				match = "MISMATCH"
			}
			fmt.Fprintf(stdout, "  node %d: halt %s (reference %d) %s\n", n, state, want[n], match)
		}
	}
	fmt.Fprintf(stdout, "%s: elapsed %s, rollbacks %d, resurrections %d\n",
		opt.app, res.Elapsed.Round(time.Millisecond), res.Rollbacks, res.Resurrections)
	if ck := res.Ckpt; ck.Checkpoints > 0 {
		fmt.Fprintf(stdout, "%s: checkpoints %d (%d full, %d delta), %d bytes written, pause %s, recoveries %d in %s\n",
			opt.app, ck.Checkpoints, ck.Fulls, ck.Deltas, ck.BytesWritten,
			time.Duration(ck.PauseNs).Round(time.Microsecond),
			ck.Recoveries, time.Duration(ck.RecoveryNs).Round(time.Microsecond))
	}
	if verr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, verr)
		return 1
	}
	fmt.Fprintf(stdout, "%s: result matches the sequential reference exactly\n", opt.app)
	return 0
}

// dumpObs writes the opt-in observability artifacts: the event trace as
// JSONL (one event per line, cmd/mojtrace's input) and the metrics
// snapshot as a single JSON document.
func dumpObs(tracer *obs.Tracer, reg *obs.Registry, opt options, stdout io.Writer) error {
	if tracer != nil {
		if err := writeSink(opt.trace, stdout, func(w io.Writer) error {
			return obs.WriteJSONL(w, tracer.Snapshot())
		}); err != nil {
			return fmt.Errorf("writing trace %s: %w", opt.trace, err)
		}
	}
	if reg != nil {
		if err := writeSink(opt.metrics, stdout, reg.WriteJSON); err != nil {
			return fmt.Errorf("writing metrics %s: %w", opt.metrics, err)
		}
	}
	return nil
}

// writeSink writes through the callback to a file, or to stdout for "-".
func writeSink(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedNodes(want map[int64]int64) []int64 {
	out := make([]int64, 0, len(want))
	for n := range want {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildScript merges the -script file (first) with repeatable -fail
// events (after), preserving order.
func buildScript(opt options) (*workload.FaultScript, error) {
	var events []workload.FaultEvent
	if opt.script != "" {
		f, err := os.Open(opt.script)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := workload.ParseScript(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", opt.script, err)
		}
		events = append(events, s.Events...)
	}
	events = append(events, opt.fails.events...)
	if len(events) == 0 {
		return nil, nil
	}
	return &workload.FaultScript{Events: events}, nil
}

// runWorker is the -join mode: host one node, exit 0 on a clean finish
// and 3 when the coordinator's failure injection killed us.
func runWorker(w workload.Workload, opt options, stdout, stderr io.Writer) int {
	var tracer *obs.Tracer
	if opt.trace != "" {
		tracer = obs.NewTracer(0)
	}
	st, err := workload.RunWorker(w, workload.WorkerConfig{
		Join: opt.join, Node: opt.node, Params: opt.params, Resume: opt.resume,
		Timeout: opt.timeout, Stdout: stdout, Trace: tracer,
	})
	// The trace is a debugging artifact, not run state: flush it even for
	// an incarnation the coordinator killed (its last events show what the
	// node was doing when the failure landed).
	if tracer != nil {
		if derr := writeSink(opt.trace, stdout, func(w io.Writer) error {
			return obs.WriteJSONL(w, tracer.Snapshot())
		}); derr != nil {
			fmt.Fprintf(stderr, "%s: worker %d: writing trace: %v\n", prog, opt.node, derr)
		}
	}
	if err == workload.ErrNodeFailed {
		fmt.Fprintf(stderr, "%s: worker %d: killed by coordinator (simulated crash)\n", prog, opt.node)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: worker %d: %v\n", prog, opt.node, err)
		return 1
	}
	if st != nil {
		fmt.Fprintf(stderr, "%s: worker %d: %s (halt %d, %d steps)\n",
			prog, opt.node, st.Status, st.Halt, st.Steps)
	}
	return 0
}

// runCoordinator is the -distributed / -coordinator mode. The store
// tier lives in the coordinator: the hub starts a store server for it
// beside its message link and advertises the port in WELCOME, workers
// checkpoint through a store client on that port, and so compression,
// replication and the admission gate apply to every worker's
// checkpoints.
func runCoordinator(w workload.Workload, p workload.Params, script *workload.FaultScript,
	opt options, st migrate.Store, tracer *obs.Tracer, stderr io.Writer) (*workload.Result, error) {
	cfg := workload.DistributedConfig{
		Listen: opt.listen,
		Store:  st,
		Trace:  tracer,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, prog+": "+format+"\n", args...)
		},
	}
	if opt.distributed {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cfg.Spawn = func(join string, node int64, resume string) error {
			args := []string{
				"-app", w.Name(),
				"-join", join,
				"-node", strconv.FormatInt(node, 10),
				"-resume", resume,
				"-nodes", strconv.Itoa(p.Nodes),
				"-size", strconv.Itoa(p.Size),
				"-aux", strconv.Itoa(p.Aux),
				"-steps", strconv.Itoa(p.Steps),
				"-ck", strconv.Itoa(p.CheckpointInterval),
				"-ckpt", p.Ckpt,
				"-ckptk", strconv.Itoa(p.CkptK),
				"-engine", p.Engine,
				"-timeout", opt.timeout.String(),
			}
			if opt.trace != "" && opt.trace != "-" {
				// Per-process trace files next to the coordinator's own:
				// FILE.node<N> for the first incarnation, FILE.node<N>.resumed
				// for a resurrection (the latest resurrection wins).
				tf := fmt.Sprintf("%s.node%d", opt.trace, node)
				if resume != "" {
					tf += ".resumed"
				}
				args = append(args, "-trace", tf)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			// Reap in the background; exit code 3 is the injected crash.
			go func() { _ = cmd.Wait() }()
			return nil
		}
	}
	return workload.RunDistributed(w, p, script, cfg, opt.timeout)
}
