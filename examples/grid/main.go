// Grid runs the paper's Figure 2 application end to end: a MojC grid
// computation compiled by the MCC frontend, executing on a simulated
// cluster of three nodes with border exchange, per-interval commits and
// checkpoints — then kills a node mid-run, resurrects it from its
// checkpoint, and shows the final answer is bit-identical to the
// failure-free sequential reference.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/workload"
	_ "repro/internal/workload/apps" // register grid
)

func main() {
	w, err := workload.Get("grid")
	if err != nil {
		fatal(err)
	}
	// Size = rows per node, Aux = columns.
	p := workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 20, CheckpointInterval: 4}

	fmt.Println("== failure-free run ==")
	clean, err := workload.Run(w, p, workload.RunConfig{})
	if err != nil {
		fatal(err)
	}
	report(w, p, clean)

	fmt.Println("== run with node 1 killed after its 2nd checkpoint ==")
	faulty, err := workload.Run(w, p, workload.RunConfig{
		Script: workload.OneFailure(1, 2, 25*time.Millisecond),
	})
	if err != nil {
		fatal(err)
	}
	report(w, p, faulty)
	fmt.Printf("   (survivor rollbacks: %d, resurrections: %d)\n",
		faulty.Rollbacks, faulty.Resurrections)

	for n, c := range clean.Nodes {
		if f := faulty.Nodes[n]; f.Halt != c.Halt {
			fatal(fmt.Errorf("node %d: failure changed the answer (%d vs %d)", n, f.Halt, c.Halt))
		}
	}
	fmt.Println("grid: the failure was fully masked — identical results")
}

func report(w workload.Workload, p workload.Params, r *workload.Result) {
	want := w.Reference(p)
	for n := int64(0); n < int64(p.Nodes); n++ {
		got := r.Nodes[n].Halt
		status := "ok"
		if got != want[n] {
			status = "MISMATCH"
		}
		fmt.Printf("   node %d: checksum %d (reference %d) %s\n", n, got, want[n], status)
	}
	fmt.Printf("   elapsed: %s\n", r.Elapsed.Round(time.Millisecond))
	if err := w.Verify(p, r.Nodes); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grid:", err)
	os.Exit(1)
}
