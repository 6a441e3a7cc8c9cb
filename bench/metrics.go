package main

import (
	"math"
	"sort"
)

// metricDef is one named metric: what BENCHMARK.json declares and what
// every run must emit. bound is the share of the baseline median by which
// an end-to-end metric may worsen before compare calls it worse; per-layer
// metrics carry no bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the runtime sees, measured with
// tracing off. BENCHMARK.json repeats this table; bench_test.go holds the
// two together.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_run", "ms", "lower", 0.25},
	{"alloc_mb_per_run", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"store_mb_per_run", "MB", "lower", 0.01},
	{"units_per_s", "1/s", "higher", 0.25},
}

// perLayer are the single-layer metrics of the traced run, prefix =
// module. A metric that does not apply to a workload (message counters of
// a distributed run, whose routers live inside the workers) reads 0.
var perLayer = []metricDef{
	{name: "harness.iterations", unit: "count", better: "higher"},
	{name: "harness.run_ms_min", unit: "ms", better: "lower"},
	{name: "harness.run_ms_p90", unit: "ms", better: "lower"},
	{name: "harness.run_ms_iqr", unit: "ms", better: "lower"},
	{name: "harness.verify_us", unit: "us", better: "lower"},
	{name: "harness.calib_ms_before", unit: "ms", better: "lower"},
	{name: "harness.calib_ms_after", unit: "ms", better: "lower"},
	{name: "harness.noisy", unit: "count", better: "lower"},
	{name: "harness.trace_overhead_frac", unit: "ratio", better: "lower"},

	{name: "workload.reference_ms", unit: "ms", better: "lower"},
	{name: "workload.slowdown_vs_reference", unit: "ratio", better: "lower"},
	{name: "workload.baseline_run_ms", unit: "ms", better: "lower"},
	{name: "workload.dominant_frac", unit: "ratio", better: "lower"},
	{name: "workload.run_self_ms", unit: "ms", better: "lower"},

	{name: "lang.compile_ms", unit: "ms", better: "lower"},
	{name: "fir.check_us", unit: "us", better: "lower"},
	{name: "fir.encode_us", unit: "us", better: "lower"},
	{name: "fir.program_bytes", unit: "B", better: "lower"},

	{name: "engine.steps_per_run", unit: "count", better: "lower"},
	{name: "engine.cpu_ns_per_step", unit: "ns", better: "lower"},
	{name: "engine.precompile_us", unit: "us", better: "lower"},
	{name: "engine.cache_hits", unit: "count", better: "higher"},
	{name: "engine.cache_misses", unit: "count", better: "lower"},
	{name: "engine.vm_run_ms", unit: "ms", better: "lower"},

	{name: "cluster.fixed_cost_us", unit: "us", better: "lower"},

	{name: "heap.snapshot_us", unit: "us", better: "lower"},
	{name: "heap.restore_us", unit: "us", better: "lower"},
	{name: "heap.live_entries", unit: "count", better: "lower"},

	{name: "wire.image_bytes", unit: "B", better: "lower"},
	{name: "wire.encode_us", unit: "us", better: "lower"},
	{name: "wire.decode_us", unit: "us", better: "lower"},
	{name: "wire.encode_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "ckpt.checkpoints_per_run", unit: "count", better: "lower"},
	{name: "ckpt.bytes_per_ckpt", unit: "B", better: "lower"},
	{name: "ckpt.pause_us_per_ckpt", unit: "us", better: "lower"},
	{name: "ckpt.capture_us_per_ckpt", unit: "us", better: "lower"},
	{name: "ckpt.commit_us_per_ckpt", unit: "us", better: "lower"},
	{name: "ckpt.pause_frac_of_run", unit: "ratio", better: "lower"},
	{name: "ckpt.restore_us", unit: "us", better: "lower"},
	{name: "ckpt.recoveries_per_run", unit: "count", better: "lower"},
	{name: "ckpt.pruned_per_run", unit: "count", better: "higher"},
	{name: "ckpt.prune_failures", unit: "count", better: "lower"},
	{name: "ckpt.delta.run_ms", unit: "ms", better: "lower"},
	{name: "ckpt.delta.bytes_per_ckpt", unit: "B", better: "lower"},
	{name: "ckpt.delta.pause_us_per_ckpt", unit: "us", better: "lower"},
	{name: "ckpt.async.run_ms", unit: "ms", better: "lower"},
	{name: "ckpt.async.pause_us_per_ckpt", unit: "us", better: "lower"},

	{name: "store.puts_per_run", unit: "count", better: "lower"},
	{name: "store.put_us_p50", unit: "us", better: "lower"},
	{name: "store.put_us_p90", unit: "us", better: "lower"},
	{name: "store.put_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "store.gets_per_run", unit: "count", better: "lower"},
	{name: "store.get_us_p50", unit: "us", better: "lower"},
	{name: "store.deletes_per_run", unit: "count", better: "higher"},
	{name: "store.errors", unit: "count", better: "lower"},
	{name: "store.bytes_at_rest", unit: "B", better: "lower"},
	{name: "store.compress_ratio", unit: "ratio", better: "higher"},

	{name: "migrate.fetch_us", unit: "us", better: "lower"},
	{name: "migrate.unpack_us", unit: "us", better: "lower"},
	{name: "migrate.unpack_decode_us", unit: "us", better: "lower"},
	{name: "migrate.unpack_check_us", unit: "us", better: "lower"},
	{name: "migrate.unpack_compile_us", unit: "us", better: "lower"},
	{name: "migrate.unpack_restore_us", unit: "us", better: "lower"},

	{name: "msg.sends_per_run", unit: "count", better: "lower"},
	{name: "msg.words_per_run", unit: "count", better: "lower"},
	{name: "msg.rolls_per_run", unit: "count", better: "lower"},
	{name: "msg.gced_per_run", unit: "count", better: "higher"},
	{name: "msg.send_recv_ns", unit: "ns", better: "lower"},

	{name: "spec.enters_per_run", unit: "count", better: "lower"},
	{name: "spec.commits_per_run", unit: "count", better: "higher"},
	{name: "spec.rollbacks_per_run", unit: "count", better: "lower"},
	{name: "spec.commit_frac", unit: "ratio", better: "higher"},

	{name: "frame.roundtrip_ns", unit: "ns", better: "lower"},
	{name: "transport.relay_rtt_us_p50", unit: "us", better: "lower"},
	{name: "transport.relay_msgs_per_s", unit: "1/s", better: "higher"},
	{name: "transport.relayed_frames_per_run", unit: "count", better: "lower"},
	{name: "transport.dist_over_inproc", unit: "ratio", better: "lower"},

	{name: "obs.trace_events_per_run", unit: "count", better: "lower"},
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), so compare
// judges spread with the same rule the benchmark contract uses. Fewer
// than two values have no spread.
func quartiles(vs []float64) (q1, q3 float64) {
	m := len(vs)
	if m < 2 {
		if m == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
