package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain implements `bench compare A.json B.json`: for every
// workload × end-to-end metric, one row with both medians, each side's
// spread (distance between its quartiles as a share of its median), the
// ratio B/A, the metric's bound, and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's spread is wider than the bound, so the medians
//	            cannot tell
//
// A is the base of every ratio. The exit code is 1 if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err == nil {
		var b resultFile
		if b, err = loadResult(args[1]); err == nil {
			return compare(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func loadResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// valuesOf collects one metric of one workload over a file's untraced
// runs, one value per seed.
func valuesOf(f resultFile, workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

func compare(a, b resultFile) int {
	fmt.Printf("%-13s %-17s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound", "verdict")
	code := 0
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, w, d.name), valuesOf(b, w, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-17s missing from one side\n", w, d.name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worseBy := mb/ma - 1
			if d.better == "higher" {
				worseBy = 1 - mb/ma
			}
			verdict := "ok"
			switch {
			case spread(va) > d.bound || spread(vb) > d.bound:
				verdict = "unresolved"
			case worseBy > d.bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-13s %-17s %12.4f %6.1f%% %12.4f %6.1f%% %8.4f %5.0f%%  %s\n",
				w, d.name, ma, 100*spread(va), mb, 100*spread(vb), mb/ma, 100*d.bound, verdict)
		}
	}
	for _, f := range []resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				fmt.Printf("%s seed %d trace %d: %d of %d runs FAILED\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}
