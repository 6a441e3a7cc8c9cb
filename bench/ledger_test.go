package main

import (
	"testing"

	"repro/internal/workload"
)

// TestLedgerOracleIndependent: the Go reference in ledger.go and the MojC
// program in ledger.mojc are two implementations of the same arithmetic.
// They must agree on both engines, across checkpoint intervals and seeds,
// and a different seed must give a different answer (or the reference
// could be ignoring its inputs).
func TestLedgerOracleIndependent(t *testing.T) {
	seen := map[int64]bool{}
	for _, l := range []ledger{{Stride: 4097, Base: 0}, {Stride: 36863, Base: 1<<20 - 1}, {Stride: 7, Base: 12345}} {
		for _, eng := range []string{"vm", "jit"} {
			for _, cki := range []int{1, 3, 9} {
				p := workload.Params{Nodes: 3, Size: 256, Steps: 8, CheckpointInterval: cki, Workers: 2, Engine: eng}
				res, err := workload.Run(l, p, workload.RunConfig{})
				if err != nil {
					t.Fatalf("%+v on %s ck=%d: %v", l, eng, cki, err)
				}
				if err := l.Verify(p, res.Nodes); err != nil {
					t.Fatalf("%+v on %s ck=%d: %v", l, eng, cki, err)
				}
				wantCk := uint64(p.Nodes * (p.Steps / cki))
				if res.Ckpt.Checkpoints != wantCk {
					t.Fatalf("%+v on %s ck=%d: %d checkpoints, want %d", l, eng, cki, res.Ckpt.Checkpoints, wantCk)
				}
			}
		}
		ref := l.Reference(workload.Params{Nodes: 3, Size: 256, Steps: 8})
		if ref[0] == ref[1] || ref[1] == ref[2] {
			t.Fatalf("%+v: nodes share a digest: %v", l, ref)
		}
		if seen[ref[0]] {
			t.Fatalf("%+v: digest %d repeats another seed's", l, ref[0])
		}
		seen[ref[0]] = true
	}
}

// TestLedgerRejectsWrongAnswer: Verify must fail when a node halts with
// anything but the reference digest.
func TestLedgerRejectsWrongAnswer(t *testing.T) {
	l := ledger{Stride: 4097, Base: 1}
	p := workload.Params{Nodes: 2, Size: 64, Steps: 2, CheckpointInterval: 1, Engine: "jit"}
	res, err := workload.Run(l, p, workload.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Nodes[1]
	n.Halt++
	res.Nodes[1] = n
	if err := l.Verify(p, res.Nodes); err == nil {
		t.Fatal("Verify accepted a wrong digest")
	}
}
