// Command mojfuzz runs the adversarial chaos fuzzer: each int64 seed
// deterministically expands into a full scenario — a registered workload
// with randomized parameters, a randomized fault script (fail, storekill,
// partition, crashresurrect), and optionally a per-link network-chaos
// profile (drop/dup/hold/reorder) — which executes against the workload's
// bit-exact sequential oracle. Failures (mismatch, hang, panic, error)
// are shrunk to a minimal repro file that mojrun -script and
// mojfuzz -replay both accept.
//
// Usage:
//
//	mojfuzz [flags]
//
//	-seeds N     number of scenarios to run (default 50)
//	-start S     first seed (default 1)
//	-seed S      replay a single seed verbosely and exit
//	-replay FILE replay one repro file and exit
//	-corpus DIR  replay every *.script repro in DIR and exit
//	-budget D    run scenarios until D elapses instead of -seeds
//	-apps LIST   comma-separated workload filter (default: all registered)
//	-engines L   comma-separated engine filter (vm,jit)
//	-timeout D   per-scenario deadline (default 20s)
//	-maxfail N   stop the campaign after N failures (default 5)
//	-repro DIR   write shrunk repro files here (default .)
//	-bench FILE  write campaign throughput + coverage JSON here
//	-v           per-scenario progress
//
// Exit status: 0 when every scenario is ok or short, 1 when any scenario
// failed, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"

	_ "repro/internal/workload/apps" // register grid, allreduce, taskfarm, pipeline, kvserve
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mojfuzz", flag.ContinueOnError)
	var (
		seeds   = fs.Int("seeds", 50, "number of scenarios to run")
		start   = fs.Int64("start", 1, "first seed")
		seed    = fs.Int64("seed", 0, "replay a single seed verbosely and exit")
		replay  = fs.String("replay", "", "replay one repro file and exit")
		corpus  = fs.String("corpus", "", "replay every *.script repro in this directory and exit")
		budget  = fs.Duration("budget", 0, "run until this budget elapses instead of -seeds")
		apps    = fs.String("apps", "", "comma-separated workload filter")
		engines = fs.String("engines", "", "comma-separated engine filter")
		timeout = fs.Duration("timeout", 20*time.Second, "per-scenario deadline")
		maxfail = fs.Int("maxfail", 5, "stop after this many failures")
		repro   = fs.String("repro", ".", "directory for shrunk repro files")
		bench   = fs.String("bench", "", "write campaign JSON (BENCH_chaos.json) here")
		verbose = fs.Bool("v", false, "per-scenario progress")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := func(string, ...any) {}
	if *verbose || *seed != 0 {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}
	gen := chaos.GenConfig{Apps: splitList(*apps), Engines: splitList(*engines)}
	reg := obs.NewRegistry()
	exec := chaos.ExecConfig{Timeout: *timeout, Metrics: reg, Logf: logf}

	switch {
	case *replay != "":
		s, err := chaos.LoadRepro(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mojfuzz:", err)
			return 2
		}
		return reportOne(*replay, s, exec)

	case *corpus != "":
		reports, err := chaos.ReplayCorpus(*corpus, exec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mojfuzz:", err)
			return 2
		}
		if len(reports) == 0 {
			fmt.Fprintf(os.Stderr, "mojfuzz: no *.script repros in %s\n", *corpus)
			return 2
		}
		bad := 0
		for path, rep := range reports {
			status := rep.Outcome.String()
			if rep.Outcome.Failed() {
				bad++
				fmt.Printf("FAIL %-40s %s: %v\n", path, status, rep.Err)
			} else {
				fmt.Printf("ok   %-40s %s (%.2fs)\n", path, status, rep.Elapsed.Seconds())
			}
		}
		if bad > 0 {
			fmt.Printf("%d/%d corpus repros failed\n", bad, len(reports))
			return 1
		}
		fmt.Printf("%d corpus repros clean\n", len(reports))
		return 0

	case *seed != 0:
		s, err := chaos.Generate(*seed, gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mojfuzz:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "scenario: %s\n", s)
		fmt.Fprint(os.Stderr, chaos.FormatRepro(s))
		return reportOne(fmt.Sprintf("seed %d", *seed), s, exec)
	}

	res, err := chaos.Fuzz(chaos.FuzzConfig{
		Seeds:       *seeds,
		StartSeed:   *start,
		Budget:      *budget,
		Gen:         gen,
		Exec:        exec,
		MaxFailures: *maxfail,
		ReproDir:    *repro,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mojfuzz:", err)
		return 2
	}
	fmt.Printf("mojfuzz: %d scenarios in %.1fs (%.2f/s): %d ok, %d short, %d failed\n",
		res.Scenarios, res.Elapsed.Seconds(),
		float64(res.Scenarios)/res.Elapsed.Seconds(),
		res.OK, res.Short, len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("  seed %d: %s: %v\n", f.Seed, f.Outcome, f.Err)
		if f.ReproPath != "" {
			fmt.Printf("    repro: %s  (replay: mojfuzz -replay %s)\n", f.ReproPath, f.ReproPath)
		}
	}
	if *bench != "" {
		if err := chaos.WriteBenchFile(*bench, res, reg); err != nil {
			fmt.Fprintln(os.Stderr, "mojfuzz: writing bench:", err)
			return 2
		}
	}
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

func reportOne(label string, s *chaos.Scenario, exec chaos.ExecConfig) int {
	rep := chaos.Replay(s, exec)
	if rep.Outcome.Failed() {
		fmt.Printf("FAIL %s: %s: %v\n", label, rep.Outcome, rep.Err)
		return 1
	}
	fmt.Printf("ok   %s: %s (%.2fs)\n", label, rep.Outcome, rep.Elapsed.Seconds())
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
