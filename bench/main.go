// Command bench is the runtime's one benchmark: four workloads (compute,
// checkpoint-write, failover, hub relay), seven end-to-end metrics
// measured with tracing off, and per-layer metrics taken from outside the
// program — by timing calls into public functions, wrapping the
// checkpoint store, and reading counters the program already exports.
// Every run is verified bit-exactly against the application's sequential
// Go reference. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
//	bench [-seeds 1,2] [-seconds S] [-quick]              every workload, both passes -> out/result.json
//	bench compare A.json B.json                           judge B against A with the metrics' bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs them all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (one-workload form)")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	flag.BoolVar(&o.quick, "quick", false, "three runs per window: check that everything is emitted and verifies, measure nothing")
	flag.StringVar(&o.outDir, "out", "out", "directory for result.json, span files and temporary stores")
	seeds := flag.String("seeds", "1", "comma-separated seeds (all-workloads form)")
	flag.Parse()
	o.trace = trace != 0

	// The paper's cluster nodes are the parallelism under test, not the
	// host: cap the schedulers so a many-core box measures the same thing.
	if os.Getenv("GOMAXPROCS") == "" && runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	if o.workload == "" {
		os.Exit(runAll(o, *seeds))
	}
	rec, err := runOne(o)
	if err != nil {
		fatal(err)
	}
	printRecord(rec)
	rec.Workload, rec.Seed, rec.Trace = "", 0, 0 // the result line has exactly four keys
	line, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// printRecord prints every metric of a run by name with its unit.
func printRecord(r record) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: %d runs attempted, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
}

// env is where and how a result file was measured.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seeds      []int64 `json:"seeds"`
	Seconds    float64 `json:"seconds"`
}

// resultFile is out/result.json: every run of one invocation.
type resultFile struct {
	Env  env      `json:"env"`
	Runs []record `json:"runs"`
}

// runAll runs every workload for every seed — each run in a child process
// of its own, one at a time, so runs share no GC state and peak RSS is per
// run — first untraced, then (first seed only) traced, and writes
// result.json. It returns the exit code: non-zero if any run failed.
func runAll(o runOpts, seedList string) int {
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bench: -seeds %q: %v", seedList, err))
		}
		seeds = append(seeds, n)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	out := resultFile{Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: os.Getenv("BENCH_COMMIT"), Seeds: seeds, Seconds: o.seconds,
	}}
	code := 0
	for _, name := range workloadNames {
		for i, seed := range seeds {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && i > 0 {
					continue
				}
				args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
					"-trace", fmt.Sprint(trace), "-out", o.outDir}
				if o.quick {
					args = append(args, "-quick")
				}
				rec, err := runChild(self, args)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v\n", name, seed, trace, err)
					code = 1
					continue
				}
				rec.Workload, rec.Seed, rec.Trace = name, seed, trace
				printRecord(rec)
				if !rec.Correct {
					code = 1
				}
				out.Runs = append(out.Runs, rec)
			}
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
	return code
}

// runChild runs one workload in a child process and parses the result
// line, the last line of its standard output.
func runChild(self string, args []string) (record, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return record{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return record{}, fmt.Errorf("parsing the result line: %w", err)
	}
	return rec, nil
}
