// Package apps is the workload library: it registers every shipped
// application with the workload registry. Importing it (usually blank,
// from a main or a test) makes grid, allreduce, taskfarm, pipeline and
// kvserve available to workload.Get / cmd/mojrun -app.
//
// Each workload is a named package of {MojC program, typed parameters,
// bit-exact sequential Go reference, result verifier}. grid is the
// paper's §2 application; the others deliberately exercise machinery
// the grid program never touches:
//
//   - allreduce: a ring global reduction — a failure mid-collective rolls
//     every node back to the last speculation and the keyed idempotent
//     phases replay bit-exactly.
//   - taskfarm: a master–worker farm whose workers solve each task
//     speculatively (speculate/abort Figure-1 style: a deterministic
//     divergence aborts the fast path and falls back), and whose task
//     retry after a node loss is idempotent by construction.
//   - pipeline: a multi-stage dataflow pipeline whose middle stage
//     executes migrate("node://K") mid-run, handing itself off to a spare
//     node while both neighbours reroute at the same batch boundary.
//   - kvserve: a replicated key-value serving tier — a front-end drives
//     a deterministic request stream at shard servers that replicate
//     every write to a ring-successor backup, and the hot shard
//     live-migrates to a spare mid-run.
package apps

import (
	"repro/internal/cluster"
	"repro/internal/fir"
	"repro/internal/workload"
)

func init() {
	workload.Register(grid{})
	workload.Register(allreduce{})
	workload.Register(taskfarm{})
	workload.Register(pipeline{})
	workload.Register(kvserve{})
}

// externSigs returns the cluster extern signatures plus ck_name and any
// extra ptr-returning externs the app declares.
func externSigs(extra ...string) map[string]fir.ExternSig {
	sigs := cluster.Externs()
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	for _, n := range extra {
		sigs[n] = fir.ExternSig{Result: fir.TyPtr}
	}
	return sigs
}
