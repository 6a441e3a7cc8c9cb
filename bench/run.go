package main

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// runOpts is one benchmark run: one workload, one seed, either the
// end-to-end window (tracing off) or the traced per-layer pass.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick replaces the timed windows with three runs each and every
	// repeated probe with one repetition: it proves every metric is
	// emitted and every workload verifies, not how fast anything is.
	quick  bool
	outDir string
}

// metricValue is a metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the result of one run; its JSON form without the first three
// fields is the last line the command prints.
type record struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newRecord checks that ms holds exactly the metrics of defs and attaches
// their units.
func newRecord(defs []metricDef, ms metricSet, attempted, failed int) (record, error) {
	r := record{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := ms[d.name]
		if !ok {
			return r, fmt.Errorf("bench: metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(ms) != len(defs) {
		return r, fmt.Errorf("bench: measured %d metrics, %d are declared", len(ms), len(defs))
	}
	return r, nil
}

// runOne executes one benchmark run in this process.
func runOne(o runOpts) (record, error) {
	sh, err := newShape(o.workload, o.seed)
	if err != nil {
		return record{}, err
	}
	b, err := newBench(sh, o.outDir)
	if err != nil {
		return record{}, err
	}
	defer b.close()

	settleFor := 5 * time.Second
	if o.quick {
		settleFor = 0 // three readings, no waiting
	}
	calib := settle(settleFor)
	var rec record
	if o.trace {
		rec, err = b.traced(o, calib)
	} else {
		rec, err = b.endToEnd(o)
	}
	fmt.Fprintf(os.Stderr, "bench: calibration loop %.2f ms before, %.2f ms after\n", calib, calibrate())
	rec.Workload, rec.Seed = o.workload, o.seed
	if o.trace {
		rec.Trace = 1
	}
	return rec, err
}

// enoughSetups decides when setup_s has enough samples for a median:
// at least minSetups, more while they are cheap (a 0.2 s set-up needs more
// samples than a 1 s one to read steadily), never more than maxSetups.
func enoughSetups(done int, spent time.Duration, quick bool) bool {
	if quick {
		return done >= 1
	}
	return done >= maxSetups || (done >= minSetups && spent >= setupBudget)
}

// endToEnd is the untraced run: set up (several times, so setup_s is a
// median), then run back to back for o.seconds.
func (b *bench) endToEnd(o runOpts) (record, error) {
	var (
		v      variant
		setups []float64
	)
	for start := time.Now(); !enoughSetups(len(setups), time.Since(start), o.quick); {
		t0 := time.Now()
		var err error
		if v, err = b.setup(); err != nil {
			return record{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	stop := forSeconds(time.Duration(o.seconds*float64(time.Second)), 10)
	if o.quick {
		stop = forRuns(3)
	}
	outs := b.window(v, stop)
	if len(outs) == 0 {
		return record{}, errors.New("bench: no run of the timed window passed: " + b.failed[0])
	}
	var cpu, alloc, stored []float64
	for _, o := range outs {
		cpu = append(cpu, o.cpuMs)
		alloc = append(alloc, o.allocMB)
		stored = append(stored, float64(o.counts.putBytes)/1e6)
	}
	p50 := median(runMsOf(outs))
	return newRecord(endToEnd, metricSet{
		"setup_s":          median(setups),
		"run_ms_p50":       p50,
		"cpu_ms_per_run":   median(cpu),
		"alloc_mb_per_run": median(alloc),
		"peak_rss_mb":      peakRSSMB(),
		"store_mb_per_run": median(stored),
		"units_per_s":      b.sh.units / p50 * 1000,
	}, len(outs)+len(b.failed), len(b.failed))
}
