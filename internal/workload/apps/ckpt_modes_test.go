package apps

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// modes is the checkpoint pipeline matrix every app must be bit-exact
// across.
var modes = []string{"full", "delta", "async"}

// TestCkptModesMatchReference: every app × every checkpoint mode ×
// worker widths 0/1/2/4 produces results bit-identical to the
// sequential reference, the incremental modes actually write deltas,
// every mode writes the program once, as one code object, and a delta
// is never bigger than the full image it stands in for. These apps
// rewrite most of their small heaps every interval, so the incremental
// modes save nothing here: what they write beyond full mode is at most
// the head ref each checkpoint publishes. (Where little of a large heap
// changes, they write a fraction of full mode's bytes:
// ckpt.TestIncrementalModesWriteLessThanFull.)
func TestCkptModesMatchReference(t *testing.T) {
	for _, w := range all(t) {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			fullBytes := make(map[int]uint64)
			for _, mode := range modes {
				for _, workers := range []int{0, 1, 2, 4} {
					t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
						p := smallParams(w)
						p.Workers = workers
						p.Ckpt = mode
						p.CkptK = 3
						res, err := workload.RunVerified(w, p, workload.RunConfig{Timeout: time.Minute})
						if err != nil {
							t.Fatal(err)
						}
						ck := res.Ckpt
						if ck.Checkpoints < 2 {
							t.Fatalf("%d checkpoints recorded, want several", ck.Checkpoints)
						}
						if ck.CodeObjects != 1 || ck.CodeBytes == 0 {
							t.Fatalf("%s mode wrote %d code objects (%d B) for %d checkpoints, want 1",
								mode, ck.CodeObjects, ck.CodeBytes, ck.Checkpoints)
						}
						switch mode {
						case "full":
							if ck.Deltas != 0 {
								t.Fatalf("full mode wrote %d deltas", ck.Deltas)
							}
							fullBytes[workers] = ck.BytesWritten
						default:
							if ck.Deltas == 0 {
								t.Fatalf("%s mode wrote no deltas: %+v", mode, ck)
							}
							// Fewer than ten nodes and ten members a chain: every
							// head ref is this long.
							ref := uint64(len(wire.EncodeRef(w.CheckpointName(0) + "@0")))
							if base := fullBytes[workers]; base > 0 && ck.BytesWritten > base+ck.Checkpoints*ref {
								t.Fatalf("%s mode wrote %d B for %d checkpoints, more than full mode's %d B plus a %d B head ref each",
									mode, ck.BytesWritten, ck.Checkpoints, base, ref)
							}
						}
					})
				}
			}
		})
	}
}

// TestCkptModesMultiFailureConverges: the two-failure fault scripts
// converge bit-exactly in the incremental modes too — including kills
// that land while an async commit is in flight (the async committer is
// always mid-flight somewhere with these small checkpoint intervals).
func TestCkptModesMultiFailureConverges(t *testing.T) {
	for _, w := range all(t) {
		for _, mode := range []string{"delta", "async"} {
			w, mode := w, mode
			t.Run(fmt.Sprintf("%s/%s", w.Name(), mode), func(t *testing.T) {
				t.Parallel()
				p := smallParams(w)
				p.Workers = 2
				p.Ckpt = mode
				p.CkptK = 2
				script := multiFailureScript(w)
				res, err := workload.RunVerified(w, p, workload.RunConfig{Script: script, Timeout: 2 * time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				if res.Resurrections != len(script.Events) {
					t.Fatalf("resurrections = %d, want %d", res.Resurrections, len(script.Events))
				}
				if res.Ckpt.Recoveries == 0 {
					t.Fatal("no recovery time recorded")
				}
			})
		}
	}
}

// TestCkptModesDistributedConverges: grid and pipeline across OS-process
// stand-ins over the TCP transport, in delta and async modes, through
// their multi-failure scripts — resurrect-from-delta-chain over the
// remote store, with kills landing mid-commit under async.
func TestCkptModesDistributedConverges(t *testing.T) {
	for _, name := range []string{"grid", "pipeline"} {
		for _, mode := range []string{"delta", "async"} {
			name, mode := name, mode
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				t.Parallel()
				w, err := workload.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				p := smallParams(w)
				p.Ckpt = mode
				p.CkptK = 2
				script := multiFailureScript(w)
				res, err := workload.RunDistributed(w, p, script,
					workload.DistributedConfig{Spawn: goSpawn(t, w, p)}, 2*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(p, res.Nodes); err != nil {
					t.Fatal(err)
				}
				if res.Resurrections != len(script.Events) {
					t.Fatalf("resurrections = %d, want %d", res.Resurrections, len(script.Events))
				}
			})
		}
	}
}
