package main

import (
	_ "embed"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/lang"
	"repro/internal/rt"
	"repro/internal/workload"
)

//go:embed ledger.mojc
var ledgerSource string

// ledger is the benchmark's own workload: independent nodes, each
// rewriting a slice of one large array and checkpointing every step. No
// registered application is checkpoint-bound at any size, so the bench
// carries its own program (ledger.mojc) and its own sequential Go
// oracle. It is deliberately not registered with the workload registry.
//
// Size = array words per node; Steps = steps. Stride and Base come from
// the benchmark seed and reach the program as arguments.
type ledger struct {
	Stride, Base int64
}

func (ledger) Name() string { return "ledger" }

func (ledger) Description() string {
	return "bench-owned checkpoint-bound ledger: each node rewrites 1/32 of a large array per step and checkpoints (Size=words/node)"
}

func (ledger) Defaults() workload.Params {
	return workload.Params{Nodes: 2, Size: 1024, Steps: 4, CheckpointInterval: 1}
}

func (l ledger) Validate(p workload.Params) error {
	switch {
	case p.Nodes < 1:
		return fmt.Errorf("ledger: need at least one node, have %d", p.Nodes)
	case p.Size < 32:
		return fmt.Errorf("ledger: array of %d words is smaller than one 1/32 slice", p.Size)
	case p.Steps < 1:
		return fmt.Errorf("ledger: need at least one step, have %d", p.Steps)
	case p.CheckpointInterval < 1:
		return fmt.Errorf("ledger: checkpoint interval %d must be positive", p.CheckpointInterval)
	case l.Stride < 1 || l.Base < 0:
		return fmt.Errorf("ledger: stride %d must be positive and base %d non-negative", l.Stride, l.Base)
	}
	return nil
}

func (ledger) Program(p workload.Params) (*fir.Program, error) {
	sigs := cluster.Externs()
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	return lang.Compile(ledgerSource, sigs)
}

func (l ledger) NodeArgs(p workload.Params) []int64 {
	return []int64{int64(p.Size), int64(p.Steps), int64(p.CheckpointInterval), l.Stride, l.Base}
}

func (ledger) StartNodes(p workload.Params) []int64 { return workload.Range(p.Nodes) }

func (ledger) SpareNodes(p workload.Params) []int64 { return nil }

func (ledger) CheckpointName(node int64) string { return fmt.Sprintf("ledger-ck-%d", node) }

func (l ledger) Externs(p workload.Params, node int64) rt.Registry {
	return workload.CkExtern(l.CheckpointName(node))
}

// Reference replays ledger.mojc sequentially, node by node.
func (l ledger) Reference(p workload.Params) map[int64]int64 {
	words, steps := int64(p.Size), int64(p.Steps)
	touch := words / 32
	out := make(map[int64]int64, p.Nodes)
	a := make([]int64, words)
	for me := int64(0); me < int64(p.Nodes); me++ {
		for i := range a {
			a[i] = (int64(i)*40503 + me*977 + l.Base) % 1000003
		}
		for step := int64(1); step <= steps; step++ {
			for j := int64(0); j < touch; j++ {
				idx := ((step*touch+j)*l.Stride + l.Base + me) % words
				a[idx] = (a[idx]*31 + step*7 + j) % 1000000007
			}
		}
		digest := int64(0)
		for _, v := range a {
			digest = (digest*31 + v) % 1000000007
		}
		out[me] = digest
	}
	return out
}

func (l ledger) Verify(p workload.Params, nodes map[int64]workload.NodeResult) error {
	return workload.VerifyHalted(l.Reference(p), nodes)
}
