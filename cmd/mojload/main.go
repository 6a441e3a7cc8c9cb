// Command mojload is the serving-mode load generator: it drives a mojd
// daemon with hundreds of concurrent workload submissions — across every
// registered app and both execution engines — measures sustained
// jobs/sec, and writes a BENCH_serve.json record including the daemon's
// own per-tenant metrics.
//
// Throttled submissions (the daemon's explicit admission refusals) are
// retried with backoff and counted; anything else failing is an error.
// Every completed run was verified bit-exactly by the daemon against the
// workload's sequential reference, so a clean mojload exit is also a
// correctness statement about everything it submitted.
//
// Usage:
//
//	mojload [flags]
//
//	-addr ADDR     daemon address; with -selfhost, an in-process daemon
//	               is started instead and ADDR is ignored
//	-selfhost      run an in-process daemon (for CI and benchmarks)
//	-jobs N        total submissions (default 200)
//	-concurrency C in-flight submissions (default 32)
//	-tenants T     distinct tenants to spread the jobs over (default 8)
//	-apps LIST     comma-separated workloads (default all registered)
//	-engines LIST  comma-separated engines (default: all registered)
//	-script S      fault script (mojrun -script syntax, semicolons for
//	               newlines) attached to tenant t0's submissions
//	-retries N     max throttle retries per job (default 50)
//	-out FILE      write the benchmark record here (default
//	               BENCH_serve.json; "-" for stdout only)
//	-trace FILE    drain the daemon's event trace after the load and
//	               write it as JSONL (cmd/mojtrace's input)
//	-obs FILE      fetch the daemon's metrics-registry snapshot after
//	               the load and write it as JSON
//	-pool/-maxruns/-queue  daemon sizing with -selfhost
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"

	_ "repro/internal/workload/apps" // register grid, allreduce, taskfarm, pipeline
)

// smallParams is the per-app shrunk problem shape the generator submits:
// big enough to checkpoint and roll back, small enough to sustain
// hundreds of runs.
func smallParams(app string) workload.Params {
	switch app {
	case "grid":
		return workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 12, CheckpointInterval: 4}
	case "allreduce":
		return workload.Params{Nodes: 3, Size: 4, Steps: 8, CheckpointInterval: 2}
	case "taskfarm":
		return workload.Params{Nodes: 3, Size: 4, Steps: 6, CheckpointInterval: 2}
	case "pipeline":
		return workload.Params{Nodes: 4, Size: 3, Aux: 4, Steps: 8, CheckpointInterval: 2}
	}
	return workload.Params{}
}

// latQuantiles summarizes one client-side latency distribution (ns).
type latQuantiles struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// quantiles computes the summary from raw samples (sorts its argument).
func quantiles(ns []int64) latQuantiles {
	q := latQuantiles{Count: len(ns)}
	if len(ns) == 0 {
		return q
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(p float64) int64 { return ns[int(p*float64(len(ns)-1))] }
	q.P50, q.P95, q.P99, q.Max = at(0.50), at(0.95), at(0.99), ns[len(ns)-1]
	return q
}

// benchRecord is the BENCH_serve.json schema. v2 added the client-side
// latency quantiles (end-to-end submit round trip and the daemon-reported
// admission-queue wait); everything v1 carried is unchanged.
type benchRecord struct {
	Schema      string         `json:"schema"`
	Jobs        int            `json:"jobs"`
	Completed   int64          `json:"completed"`
	Failed      int64          `json:"failed"`
	Throttles   int64          `json:"throttles"`
	Concurrency int            `json:"concurrency"`
	Tenants     int            `json:"tenants"`
	Apps        []string       `json:"apps"`
	Engines     []string       `json:"engines"`
	ElapsedNs   int64          `json:"elapsed_ns"`
	JobsPerSec  float64        `json:"jobs_per_sec"`
	E2ELatency  latQuantiles   `json:"e2e_latency"`
	QueueWait   latQuantiles   `json:"queue_wait"`
	Server      *serve.Metrics `json:"server_metrics,omitempty"`
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9444", "daemon address")
		selfhost    = flag.Bool("selfhost", false, "start an in-process daemon")
		jobs        = flag.Int("jobs", 200, "total submissions")
		concurrency = flag.Int("concurrency", 32, "in-flight submissions")
		tenants     = flag.Int("tenants", 8, "distinct tenants")
		appsFlag    = flag.String("apps", "", "comma-separated workloads (default: all registered)")
		engines     = flag.String("engines", strings.Join(engine.Names(), ","), "comma-separated engines")
		script      = flag.String("script", "", "fault script for tenant t0 (semicolons for newlines)")
		retries     = flag.Int("retries", 50, "max throttle retries per job")
		out         = flag.String("out", "BENCH_serve.json", `output file ("-" for stdout only)`)
		traceOut    = flag.String("trace", "", "drain the daemon's trace into this JSONL file")
		obsOut      = flag.String("obs", "", "write the daemon's metrics-registry snapshot into this JSON file")
		pool        = flag.Int("pool", 0, "daemon pool size with -selfhost (0 = GOMAXPROCS)")
		maxRuns     = flag.Int("maxruns", 16, "daemon maxruns with -selfhost")
		queue       = flag.Int("queue", 64, "daemon queue depth with -selfhost")
	)
	flag.Parse()
	if code := run(*addr, *selfhost, *jobs, *concurrency, *tenants, *appsFlag, *engines,
		*script, *retries, *out, *traceOut, *obsOut, *pool, *maxRuns, *queue); code != 0 {
		os.Exit(code)
	}
}

func run(addr string, selfhost bool, jobs, concurrency, tenants int, appsFlag, enginesFlag,
	script string, retries int, out, traceOut, obsOut string, pool, maxRuns, queue int) int {
	apps := workload.Names()
	if appsFlag != "" {
		apps = strings.Split(appsFlag, ",")
	}
	engines := strings.Split(enginesFlag, ",")
	for _, app := range apps {
		if _, err := workload.Get(app); err != nil {
			fmt.Fprintf(os.Stderr, "mojload: %v\n", err)
			return 1
		}
	}
	script = strings.ReplaceAll(script, ";", "\n")

	if selfhost {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mojload: %v\n", err)
			return 1
		}
		s := serve.NewServer(l, serve.Config{PoolWorkers: pool, MaxRuns: maxRuns, QueueDepth: queue})
		go func() { _ = s.Serve() }()
		defer s.Close()
		addr = s.Addr()
		fmt.Printf("mojload: self-hosted daemon on %s\n", addr)
	}
	client := &serve.Client{Addr: addr, SubmitTimeout: 5 * time.Minute}

	var completed, failed, throttles int64
	var firstErr atomic.Value
	var latMu sync.Mutex
	var e2eNs, queueNs []int64
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(worker)))
			for idx := range work {
				req := serve.SubmitRequest{
					Tenant: fmt.Sprintf("t%d", idx%tenants),
					App:    apps[idx%len(apps)],
					Params: smallParams(apps[idx%len(apps)]),
				}
				req.Params.Engine = engines[(idx/len(apps))%len(engines)]
				if script != "" && idx%tenants == 0 {
					req.Script = script
				}
				jobStart := time.Now()
				reply, err := submitWithRetry(client, req, retries, rnd, &throttles)
				if err != nil {
					atomic.AddInt64(&failed, 1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				atomic.AddInt64(&completed, 1)
				latMu.Lock()
				e2eNs = append(e2eNs, time.Since(jobStart).Nanoseconds())
				queueNs = append(queueNs, reply.QueueWaitNs)
				latMu.Unlock()
			}
		}(i)
	}
	for idx := 0; idx < jobs; idx++ {
		work <- idx
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	rec := benchRecord{
		Schema:      "mojd-load/v2",
		Jobs:        jobs,
		Completed:   completed,
		Failed:      failed,
		Throttles:   throttles,
		Concurrency: concurrency,
		Tenants:     tenants,
		Apps:        apps,
		Engines:     engines,
		ElapsedNs:   elapsed.Nanoseconds(),
		JobsPerSec:  float64(completed) / elapsed.Seconds(),
		E2ELatency:  quantiles(e2eNs),
		QueueWait:   quantiles(queueNs),
	}
	if m, err := client.Metrics(); err == nil {
		rec.Server = m
	} else {
		fmt.Fprintf(os.Stderr, "mojload: fetching server metrics: %v\n", err)
	}
	if traceOut != "" {
		events, err := client.TraceDrain()
		if err == nil {
			var f *os.File
			if f, err = os.Create(traceOut); err == nil {
				err = obs.WriteJSONL(f, events)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mojload: draining daemon trace: %v\n", err)
			return 1
		}
		fmt.Printf("mojload: drained %d trace events into %s\n", len(events), traceOut)
	}
	if obsOut != "" {
		snap, err := client.ObsSnapshot()
		if err == nil {
			var data []byte
			if data, err = json.MarshalIndent(snap, "", "  "); err == nil {
				err = os.WriteFile(obsOut, append(data, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mojload: fetching registry snapshot: %v\n", err)
			return 1
		}
	}

	fmt.Printf("mojload: %d jobs in %s (%.1f jobs/sec), %d throttle retries, %d failed\n",
		rec.Completed, elapsed.Round(time.Millisecond), rec.JobsPerSec, rec.Throttles, rec.Failed)
	fmt.Printf("mojload: e2e latency p50 %s p95 %s p99 %s, queue wait p50 %s p95 %s p99 %s\n",
		time.Duration(rec.E2ELatency.P50).Round(time.Microsecond),
		time.Duration(rec.E2ELatency.P95).Round(time.Microsecond),
		time.Duration(rec.E2ELatency.P99).Round(time.Microsecond),
		time.Duration(rec.QueueWait.P50).Round(time.Microsecond),
		time.Duration(rec.QueueWait.P95).Round(time.Microsecond),
		time.Duration(rec.QueueWait.P99).Round(time.Microsecond))
	if rec.Server != nil {
		fmt.Printf("mojload: server: accepted %d, rejected %d, rollbacks %d, ckpt bytes %d, gc %d objects (%d failures)\n",
			rec.Server.Accepted, rec.Server.Rejected, rec.Server.Rollbacks,
			rec.Server.CkptBytes, rec.Server.GCObjects, rec.Server.GCFailures)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mojload: %v\n", err)
		return 1
	}
	if out == "-" {
		fmt.Println(string(data))
	} else if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mojload: %v\n", err)
		return 1
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mojload: %d jobs failed; first: %v\n", failed, firstErr.Load())
		return 1
	}
	return 0
}

// submitWithRetry retries explicit throttles with jittered backoff —
// the daemon's admission control is the backpressure signal — and
// returns any other failure as final.
func submitWithRetry(c *serve.Client, req serve.SubmitRequest, retries int,
	rnd *rand.Rand, throttles *int64) (*serve.RunReply, error) {
	for attempt := 0; ; attempt++ {
		reply, err := c.Submit(req)
		if err == nil {
			return reply, nil
		}
		if !errors.Is(err, serve.ErrThrottled) || attempt >= retries {
			return nil, err
		}
		atomic.AddInt64(throttles, 1)
		window := 5 * time.Millisecond << uint(min(attempt, 6))
		time.Sleep(time.Duration(rnd.Int63n(int64(window))))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
