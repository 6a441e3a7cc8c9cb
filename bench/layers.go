package main

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/engine"
)

// traced is the per-layer pass: a short untraced window (the yardstick
// for tracing overhead), the same window again with harness spans and the
// program's own Metrics/Trace hooks attached, then the side runs and the
// direct probes. Nothing here feeds an end-to-end metric.
func (b *bench) traced(o runOpts, calibBefore float64) (record, error) {
	reps := 5 // repetitions of every side run and probe
	window := func(v variant) []*iterOut {
		return b.window(v, forSeconds(time.Duration(o.seconds/3*float64(time.Second)), 5))
	}
	if o.quick {
		reps = 1
		window = func(v variant) []*iterOut { return b.window(v, forRuns(3)) }
	}
	ms := metricSet{}

	// The first call in the process: grid memoizes its reference, so any
	// later call would time a map lookup instead of the oracle.
	t0 := time.Now()
	b.sh.w.Reference(b.base(nil).p)
	ms["workload.reference_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	v, err := b.setup()
	if err != nil {
		return record{}, err
	}

	plain := window(v)
	if len(plain) == 0 {
		return record{}, errors.New("bench: no untraced run passed: " + b.failed[0])
	}
	plainP50 := median(runMsOf(plain))
	var cpu []float64
	for _, out := range plain {
		cpu = append(cpu, out.cpuMs)
	}

	spans := newSpanRec()
	tv := v
	tv.spans, tv.obs = spans, true
	cache0 := engine.CacheStats()
	outs := window(tv)
	cache1 := engine.CacheStats()
	tv.keepStore = true
	last, err := b.runOnce(tv) // its store stays open for the probes
	if err != nil {
		return record{}, fmt.Errorf("bench: traced run: %w", err)
	}
	defer last.cleanup()
	if len(outs) == 0 {
		return record{}, errors.New("bench: no traced run passed: " + b.failed[0])
	}
	runs := float64(len(outs))
	times := runMsOf(outs)

	// harness
	ms["harness.iterations"] = runs
	ms["harness.run_ms_min"] = quantile(times, 0)
	ms["harness.run_ms_p90"] = quantile(times, 0.9)
	ms["harness.run_ms_iqr"] = quantile(times, 0.75) - quantile(times, 0.25)
	ms["harness.trace_overhead_frac"] = median(times)/plainP50 - 1
	ms["workload.run_self_ms"] = median(spans.selfMsOf("workload.run"))

	// Counters the program already exports, summed over the traced runs.
	var (
		verify, steps          []float64
		ck                     ckpt.Stats
		puts, gets, dels, errs float64
		putBytes, events       float64
		relayed                float64
		putNs, getNs           []float64
		counters               = map[string]float64{}
	)
	for _, out := range outs {
		verify = append(verify, out.verifyUs)
		var st float64
		for _, n := range out.res.Nodes {
			st += float64(n.Steps)
		}
		steps = append(steps, st)
		c := out.res.Ckpt
		ck.Checkpoints += c.Checkpoints
		ck.BytesWritten += c.BytesWritten
		ck.PauseNs += c.PauseNs
		ck.CaptureNs += c.CaptureNs
		ck.CommitNs += c.CommitNs
		ck.Recoveries += c.Recoveries
		ck.RecoveryNs += c.RecoveryNs
		ck.Pruned += c.Pruned
		ck.PruneFailures += c.PruneFailures
		s := out.counts
		puts += float64(s.puts)
		gets += float64(s.gets)
		dels += float64(s.deletes)
		errs += float64(s.errors)
		putBytes += float64(s.putBytes)
		putNs = append(putNs, s.putNs...)
		getNs = append(getNs, s.getNs...)
		for k, val := range out.counters {
			if u, ok := val.(uint64); ok {
				counters[k] += float64(u)
			}
		}
		events += float64(len(out.events))
		for _, ev := range out.events {
			if ev.Stream == "hub" && ev.Kind == "frame.recv" && ev.Name == "msg" {
				relayed++
			}
		}
	}
	ms["harness.verify_us"] = median(verify)
	stepsPerRun := median(steps)
	ms["engine.steps_per_run"] = stepsPerRun
	ms["engine.cpu_ns_per_step"] = ratio(median(cpu)*1e6, stepsPerRun)
	ms["engine.cache_hits"] = float64(cache1[engineName+"_hits"]-cache0[engineName+"_hits"]) / runs
	ms["engine.cache_misses"] = float64(cache1[engineName+"_misses"]-cache0[engineName+"_misses"]) / runs

	cks := float64(ck.Checkpoints)
	ms["ckpt.checkpoints_per_run"] = cks / runs
	ms["ckpt.bytes_per_ckpt"] = ratio(float64(ck.BytesWritten), cks)
	ms["ckpt.pause_us_per_ckpt"] = ratio(float64(ck.PauseNs)/1e3, cks)
	ms["ckpt.capture_us_per_ckpt"] = ratio(float64(ck.CaptureNs)/1e3, cks)
	ms["ckpt.commit_us_per_ckpt"] = ratio(float64(ck.CommitNs)/1e3, cks)
	// Pauses add up over nodes that run side by side: the share is of one
	// node's wall time.
	nodes := float64(len(b.sh.w.StartNodes(v.p)))
	ms["ckpt.pause_frac_of_run"] = float64(ck.PauseNs) / 1e6 / runs / nodes / median(times)
	ms["ckpt.restore_us"] = ratio(float64(ck.RecoveryNs)/1e3, float64(ck.Recoveries))
	ms["ckpt.recoveries_per_run"] = float64(ck.Recoveries) / runs
	ms["ckpt.pruned_per_run"] = float64(ck.Pruned) / runs
	ms["ckpt.prune_failures"] = float64(ck.PruneFailures)

	var putNsSum float64
	for _, d := range putNs {
		putNsSum += d
	}
	ms["store.puts_per_run"] = puts / runs
	ms["store.put_us_p50"] = quantile(putNs, 0.5) / 1e3
	ms["store.put_us_p90"] = quantile(putNs, 0.9) / 1e3
	ms["store.put_mb_per_s"] = ratio(putBytes/1e6, putNsSum/1e9)
	ms["store.gets_per_run"] = gets / runs
	ms["store.get_us_p50"] = quantile(getNs, 0.5) / 1e3
	ms["store.deletes_per_run"] = dels / runs
	ms["store.errors"] = errs

	ms["msg.sends_per_run"] = counters["msg.sends"] / runs
	ms["msg.words_per_run"] = counters["msg.words_sent"] / runs
	ms["msg.rolls_per_run"] = counters["msg.rolls"] / runs
	ms["msg.gced_per_run"] = counters["msg.gced"] / runs
	ms["spec.enters_per_run"] = counters["spec.enters"] / runs
	ms["spec.commits_per_run"] = counters["spec.commits"] / runs
	ms["spec.rollbacks_per_run"] = counters["spec.rollbacks"] / runs
	ms["spec.commit_frac"] = ratio(counters["spec.commits"], counters["spec.enters"])
	ms["obs.trace_events_per_run"] = events / runs
	ms["transport.relayed_frames_per_run"] = relayed / runs

	// Side runs: the same shape with one thing changed, reps runs each.
	side := func(name string, sv variant) ([]*iterOut, error) {
		id := spans.start("side."+name, -1, b.iter)
		defer spans.end(id)
		got := b.window(sv, forRuns(reps))
		if len(got) == 0 {
			return nil, fmt.Errorf("bench: no %s run passed: %s", name, b.failed[len(b.failed)-1])
		}
		return got, nil
	}
	baseline, err := side("baseline", b.sh.baseline(v))
	if err != nil {
		return record{}, err
	}
	baseMs := median(runMsOf(baseline))
	ms["workload.baseline_run_ms"] = baseMs
	ms["workload.dominant_frac"] = 1 - baseMs/plainP50
	ms["transport.dist_over_inproc"] = 0
	if b.sh.dist {
		ms["transport.dist_over_inproc"] = plainP50 / baseMs
	}

	fixed, err := side("fixed_cost", b.sh.minimal(v))
	if err != nil {
		return record{}, err
	}
	ms["cluster.fixed_cost_us"] = median(runMsOf(fixed)) * 1e3

	vmv := v
	vmv.p.Engine = "vm"
	onVM, err := side("vm", vmv)
	if err != nil {
		return record{}, err
	}
	ms["engine.vm_run_ms"] = median(runMsOf(onVM))

	// Every checkpoint mode ckpt.ParseMode still accepts, on this shape
	// without its fault script: the sweep prices the write path, and async
	// commits under back-to-back delay=0s kills wedge about one kv_failover
	// run in 500 until the run's timeout (seed commit; see README.md).
	for _, mode := range []string{"delta", "async"} {
		runMs, bytesPer, pausePer := 0.0, 0.0, 0.0
		if _, err := ckpt.ParseMode(mode); err == nil {
			mv := v
			mv.p.Ckpt, mv.noFaults = mode, true
			got, err := side("ckpt_"+mode, mv)
			if err != nil {
				return record{}, err
			}
			var n, bytes, pause float64
			for _, out := range got {
				n += float64(out.res.Ckpt.Checkpoints)
				bytes += float64(out.res.Ckpt.BytesWritten)
				pause += float64(out.res.Ckpt.PauseNs)
			}
			runMs, bytesPer, pausePer = median(runMsOf(got)), ratio(bytes, n), ratio(pause/1e3, n)
		}
		ms["ckpt."+mode+".run_ms"] = runMs
		if mode == "delta" {
			ms["ckpt.delta.bytes_per_ckpt"] = bytesPer
		}
		ms["ckpt."+mode+".pause_us_per_ckpt"] = pausePer
	}

	// Direct probes, on the last traced run's final checkpoint image and
	// on small fixed inputs.
	atRest, err := last.store.logicalBytes()
	if err != nil {
		return record{}, fmt.Errorf("bench: reading the store back: %w", err)
	}
	onDisk := atRest
	if last.dir != "" {
		if onDisk, err = dirBytes(last.dir); err != nil {
			return record{}, err
		}
	}
	ms["store.bytes_at_rest"] = float64(onDisk)
	ms["store.compress_ratio"] = ratio(float64(atRest), float64(onDisk))
	if err := b.probeAll(ms, v, last, spans, reps); err != nil {
		return record{}, err
	}
	ms["workload.slowdown_vs_reference"] = ratio(plainP50, ms["workload.reference_ms"])

	calibAfter := calibrate()
	ms["harness.calib_ms_before"] = calibBefore
	ms["harness.calib_ms_after"] = calibAfter
	ms["harness.noisy"] = 0
	if calibAfter > calibBefore*1.10 || calibBefore > calibAfter*1.10 {
		ms["harness.noisy"] = 1
	}

	if err := spans.writeJSONL(filepath.Join(o.outDir, "trace-"+b.sh.name+".jsonl")); err != nil {
		return record{}, err
	}
	// Every run this process started counts, side runs included.
	return newRecord(perLayer, ms, b.iter, len(b.failed))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
