package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json declares exactly the
// workloads and metrics this package implements, within the limits the
// benchmark contract sets on names, units and counts.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}

	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		sh, err := newShape(workloadNames[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != sh.name || w.Why != sh.why {
			t.Errorf("workload %d: declared %q / %q, implemented %q / %q", i, w.Name, w.Why, sh.name, sh.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q is outside the contract", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, implemented %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if got := (metricDef{name: m.Name, unit: m.Unit, better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, implemented %+v", i, got, perLayer[i])
		}
		check(m.Name, m.Unit, m.Better)
	}
}

// TestQuickRunEmitsEveryMetric runs every workload in -quick mode, both
// passes: no run may fail verification, every declared metric must come
// out with its unit (newRecord refuses anything else), no end-to-end
// metric may read 0, and the traced pass must leave its span file.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: name, seed: 2, trace: trace, quick: true, outDir: t.TempDir()}
			rec, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 3 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			if !trace {
				for n, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", name, n, m.Value)
					}
				}
				continue
			}
			spans, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+name+".jsonl"))
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: span file: %v (%d bytes)", name, err, len(spans))
			}
			if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp", "*")); len(left) != 0 {
				t.Errorf("%s: temporary stores left behind: %v", name, left)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

// TestSelfTimeSubtractsUnionOfChildren: overlapping children are counted
// once, and a child's own children do not count against the grandparent.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := &spanRec{spans: []span{
		{ID: 0, Name: "run", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "put", StartNs: 10, EndNs: 40, Parent: 0},
		{ID: 2, Name: "put", StartNs: 30, EndNs: 60, Parent: 0},
		{ID: 3, Name: "fsync", StartNs: 35, EndNs: 55, Parent: 2},
		{ID: 4, Name: "put", StartNs: 80, EndNs: 90, Parent: 0},
	}}
	self := r.selfNs()
	if self[0] != 40 || self[1] != 30 || self[2] != 10 || self[3] != 20 {
		t.Errorf("self times = %v", self)
	}
}

// TestCompareVerdicts: within the bound is ok, beyond it is worse (exit
// 1), and a side whose spread exceeds the bound is unresolved, not worse.
func TestCompareVerdicts(t *testing.T) {
	file := func(runMs ...float64) resultFile {
		var f resultFile
		for _, w := range workloadNames {
			for i, v := range runMs {
				ms := map[string]metricValue{}
				for _, d := range endToEnd {
					ms[d.name] = metricValue{Value: 1, Unit: d.unit}
				}
				ms["run_ms_p50"] = metricValue{Value: v, Unit: "ms"}
				f.Runs = append(f.Runs, record{Workload: w, Seed: int64(i), Correct: true, Attempted: 1, Metrics: ms})
			}
		}
		return f
	}
	bound := endToEnd[1].bound // run_ms_p50
	base := file(100, 101, 102)
	by := func(f float64) resultFile { return file(100*(1+f), 101*(1+f), 102*(1+f)) }
	if code := compare(base, by(bound/2)); code != 0 {
		t.Errorf("half the bound slower: exit %d", code)
	}
	if code := compare(base, by(2*bound)); code != 1 {
		t.Errorf("twice the bound slower: exit %d", code)
	}
	if code := compare(base, file(100, 100*(1+2*bound), 100*(1+4*bound))); code != 0 {
		t.Errorf("a spread wider than the bound must be unresolved, not worse: exit %d", code)
	}
	bad := file(100, 101, 102)
	bad.Runs[0].Correct = false
	if code := compare(base, bad); code != 1 {
		t.Errorf("a failed run must fail the comparison: exit %d", code)
	}
}
