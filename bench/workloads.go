package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
	_ "repro/internal/workload/apps" // registers grid and kvserve
)

// shape is one benchmark workload: a fixed application, size and
// configuration, run back to back in a closed loop (one run at a time)
// and verified bit-exactly against the application's sequential Go
// reference after every run.
type shape struct {
	name string
	why  string
	w    workload.Workload
	p    workload.Params

	// dist runs the shape through workload.RunDistributed: a loopback
	// transport.Hub plus one RunWorker goroutine per node over real TCP.
	dist bool
	// zdir backs every run with a fresh zdir:<temp dir> store instead of
	// a MemStore: compression, file writes and fsync are in the run.
	zdir bool
	// scripts is the family of fault scripts iterations cycle through
	// (kv_failover); nil for a failure-free workload.
	scripts []*workload.FaultScript
	// units is the work one run completes: cell-updates (grid), bytes
	// checkpointed (ledger), requests served (kvserve).
	units float64
	// baseline is the same shape with its dominant mechanism switched
	// off — what workload.dominant_frac compares the full run against.
	baseline func(variant) variant
	// minimal is the smallest valid run of the shape — one step, no
	// checkpoint, no fault — whose wall time is the cluster's fixed cost:
	// spawn, artifact cache, teardown.
	minimal func(variant) variant
}

// engineName is the engine every workload runs on; the vm oracle only
// appears as the informational engine.vm_run_ms.
const engineName = "jit"

// kvScriptFamily are the valid six-event kv_failover scripts. Events 0
// and 1 are fixed: the migrating hot shard (node 1) may only be killed
// first and early, before it hands off, and the spare (node 3) right
// after. The other four kills hit the front-end (0) and the cold shard
// (2) in varying order at varying checkpoints. Every delay is 0s: a
// wall-clock restart delay would put a sleep into the measurement, and
// delay=ck:N falls into the stall-timeout poll on this shape.
var kvScriptFamily = [][]string{
	{"1@1", "3@1", "0@3", "2@4", "0@5", "2@6"},
	{"1@1", "3@1", "2@3", "0@4", "2@5", "0@6"},
	{"1@1", "3@1", "0@3", "0@4", "2@5", "2@6"},
	{"1@1", "3@1", "2@3", "2@4", "0@5", "0@6"},
	{"1@1", "3@1", "0@2", "2@3", "0@4", "2@5"},
	{"1@1", "3@1", "0@4", "2@5", "0@6", "2@7"},
	{"1@1", "3@1", "0@3", "2@5", "0@6", "2@7"},
	{"1@1", "3@1", "2@2", "0@3", "2@5", "0@7"},
}

var workloadNames = []string{"grid_compute", "ledger_ckpt", "kv_failover", "grid_dist"}

// newShape builds a workload's shape. The seed picks the ledger's stride
// and base and the order in which kv_failover visits its script family;
// the amount of work per run is the same for every seed. The grid
// workloads take no seed.
func newShape(name string, seed int64) (*shape, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "grid_compute":
		w, err := workload.Get("grid")
		if err != nil {
			return nil, err
		}
		return &shape{
			name:     name,
			why:      "paper's grid, 4 nodes x 32x32 cells x 100 steps in-process: the engine does ~97% of the work, so engine changes must show here and checkpoint/store/transport changes must not",
			w:        w,
			p:        workload.Params{Nodes: 4, Size: 32, Aux: 32, Steps: 100, CheckpointInterval: 50},
			units:    4 * 32 * 32 * 100,
			baseline: noCheckpoints, minimal: oneStep,
		}, nil
	case "ledger_ckpt":
		// An odd stride below the array size walks the whole array; the
		// base shifts both the initial contents and the walk's origin.
		l := ledger{Stride: 2*rng.Int63n(16384) + 4097, Base: rng.Int63n(1 << 20)}
		p := workload.Params{Nodes: 2, Size: 65536, Steps: 30, CheckpointInterval: 1}
		return &shape{
			name: name,
			why:  "bench-owned ledger, 2 nodes x 65536 words, checkpoint every step to a zdir store: snapshot, wire encode, commit, compress and file+fsync are >70% of wall, which no registered app reaches",
			w:    l,
			p:    p,
			zdir: true,
			// One full image of every node's array per checkpoint.
			units:    float64(p.Nodes * p.Steps * p.Size * 8),
			baseline: noCheckpoints, minimal: oneStep,
		}, nil
	case "kv_failover":
		w, err := workload.Get("kvserve")
		if err != nil {
			return nil, err
		}
		var scripts []*workload.FaultScript
		for _, i := range rng.Perm(len(kvScriptFamily)) {
			s := &workload.FaultScript{}
			for _, spec := range kvScriptFamily[i] {
				ev, err := workload.ParseFailSpec(spec + "@0s")
				if err != nil {
					return nil, fmt.Errorf("bench: kv_failover script %d: %w", i, err)
				}
				s.Events = append(s.Events, ev)
			}
			scripts = append(scripts, s)
		}
		return &shape{
			name:     name,
			why:      "kvserve, 4 nodes, 256 requests under six scripted kills with zero restart delay: restores, survivor rollbacks, speculation aborts and a live hand-off are ~70% of wall, the rest is spawn and teardown",
			w:        w,
			p:        workload.Params{Nodes: 4, Size: 16, Aux: 4, Steps: 16, CheckpointInterval: 2},
			scripts:  scripts,
			units:    16 * 16,
			baseline: func(v variant) variant { v.noFaults = true; return v },
			// kvserve's migration batch must be a checkpoint boundary
			// inside the run, so its smallest run is two batches.
			minimal: func(v variant) variant {
				v.p.Steps, v.p.Aux, v.p.CheckpointInterval, v.noFaults = 2, 2, 2, true
				return v
			},
		}, nil
	case "grid_dist":
		w, err := workload.Get("grid")
		if err != nil {
			return nil, err
		}
		return &shape{
			name:     name,
			why:      "paper's grid as skinny strips, 4 nodes x 8x64 cells x 100 steps through a loopback hub and TCP workers: 600 border frames relayed twice, four worker joins and compiles make it 4x the in-process wall",
			w:        w,
			p:        workload.Params{Nodes: 4, Size: 8, Aux: 64, Steps: 100, CheckpointInterval: 50},
			dist:     true,
			units:    4 * 8 * 64 * 100,
			baseline: func(v variant) variant { v.inProcess = true; return v },
			minimal:  oneStep,
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// noCheckpoints pushes the checkpoint interval past the last step.
func noCheckpoints(v variant) variant {
	v.p.CheckpointInterval = v.p.Steps + 1
	return v
}

// oneStep is a single step with the checkpoint interval past it.
func oneStep(v variant) variant {
	v.p.Steps, v.p.CheckpointInterval = 1, 2
	return v
}
