// Command mojrun executes any registered workload (grid, allreduce,
// taskfarm, pipeline, …) on the simulated in-process cluster or
// distributed across OS processes over the TCP cluster transport,
// optionally driving it through a declarative fault script, and verifies
// the result bit-exactly against the workload's sequential reference.
//
// Usage:
//
//	mojrun [flags]
//
//	-app NAME    workload to run (default grid; see -list)
//	-list        list registered workloads and their defaults
//	-nodes N     cluster nodes (0 = workload default)
//	-size N      per-node problem size (0 = workload default)
//	-aux N       workload-specific knob (grid: columns; pipeline:
//	             migration batch; 0 = workload default)
//	-steps N     timesteps / rounds / batches (0 = workload default)
//	-ck N        checkpoint interval (0 = workload default)
//	-workers N   concurrently executing node quanta (0 = unbounded)
//	-engine E    execution engine: "vm" (slot-resolved interpreter,
//	             default) or "jit" (threaded code); results are
//	             bit-identical on either
//	-ckpt MODE   checkpoint pipeline: full (default), delta, async
//	-ckptk K     force a full image every K delta checkpoints
//	-fail SPEC   inject a failure: "node@checkpoints[@delay]", e.g.
//	             "1@2", "0@4@50ms" or "2@1@ck:2" (resurrect after 2 more
//	             store writes); repeatable — events fire in order
//	-script FILE fault-scenario script (fail, storekill, partition and
//	             crashresurrect lines; see README cookbook)
//	-timeout D   run timeout (default 2m)
//	-v           print per-node halt codes
//
// Distributed mode:
//
//	-distributed, -coordinator, -listen, -storedir, -join, -node, -resume
//
// A worker ordered to die by the coordinator's fault injection exits
// with code 3 (simulated crash, not an error).
package main

import (
	"os"

	"repro/internal/workload/cli"

	_ "repro/internal/workload/apps" // register the shipped apps
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
