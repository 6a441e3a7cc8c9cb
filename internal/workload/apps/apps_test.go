package apps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/transport"
	"repro/internal/workload"
)

// every registered workload, fetched through the registry like any
// embedder would.
func all(t *testing.T) []workload.Workload {
	t.Helper()
	names := workload.Names()
	if len(names) < 5 {
		t.Fatalf("registry has %v, want at least grid, allreduce, taskfarm, pipeline, kvserve", names)
	}
	out := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, err := workload.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// smallParams shrinks each app's defaults so the matrix stays fast.
func smallParams(w workload.Workload) workload.Params {
	switch w.Name() {
	case "grid":
		return workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 12, CheckpointInterval: 4}
	case "allreduce":
		return workload.Params{Nodes: 3, Size: 4, Steps: 8, CheckpointInterval: 2}
	case "taskfarm":
		return workload.Params{Nodes: 3, Size: 4, Steps: 6, CheckpointInterval: 2}
	case "pipeline":
		return workload.Params{Nodes: 4, Size: 3, Aux: 4, Steps: 8, CheckpointInterval: 2}
	case "kvserve":
		return workload.Params{Nodes: 4, Size: 4, Aux: 4, Steps: 6, CheckpointInterval: 2}
	}
	return workload.Params{}
}

// multiFailureScript is each app's two-failure scenario: two different
// nodes die at different checkpoint counts, strictly in sequence.
func multiFailureScript(w workload.Workload) *workload.FaultScript {
	d := 20 * time.Millisecond
	switch w.Name() {
	case "grid":
		return &workload.FaultScript{Events: []workload.FaultEvent{
			{Node: 1, AfterCheckpoints: 1, Delay: d},
			{Node: 0, AfterCheckpoints: 2, Delay: d},
		}}
	case "allreduce":
		return &workload.FaultScript{Events: []workload.FaultEvent{
			{Node: 2, AfterCheckpoints: 1, Delay: d},
			{Node: 1, AfterCheckpoints: 2, Delay: d},
		}}
	case "taskfarm":
		// Kill a worker, then the master itself.
		return &workload.FaultScript{Events: []workload.FaultEvent{
			{Node: 1, AfterCheckpoints: 1, Delay: d},
			{Node: 0, AfterCheckpoints: 2, Delay: d},
		}}
	case "pipeline":
		// Kill the source, then the spare after the stage migrated to it.
		return &workload.FaultScript{Events: []workload.FaultEvent{
			{Node: 0, AfterCheckpoints: 1, Delay: d},
			{Node: 3, AfterCheckpoints: 1, Delay: d},
		}}
	case "kvserve":
		// Kill the hot shard before it migrates, then the spare hosting it
		// afterwards.
		return &workload.FaultScript{Events: []workload.FaultEvent{
			{Node: 1, AfterCheckpoints: 1, Delay: d},
			{Node: 3, AfterCheckpoints: 1, Delay: d},
		}}
	}
	return nil
}

// TestProgramsCompile: every registered workload's MojC program
// compiles.
func TestProgramsCompile(t *testing.T) {
	for _, w := range all(t) {
		if _, err := w.Program(w.Defaults()); err != nil {
			t.Errorf("%s: Program: %v", w.Name(), err)
		}
	}
}

// TestDefaultsValidate: every workload's defaults pass its own
// validation.
func TestDefaultsValidate(t *testing.T) {
	for _, w := range all(t) {
		if _, err := workload.Normalize(w, workload.Params{}); err != nil {
			t.Errorf("%s: defaults do not validate: %v", w.Name(), err)
		}
	}
}

// TestInProcessMatchesReference: every app, on every registered
// execution engine, with worker-pool widths 0 (unbounded), 1, 2 and 4,
// produces halt codes bit-identical to its sequential reference.
func TestInProcessMatchesReference(t *testing.T) {
	for _, w := range all(t) {
		w := w
		for _, eng := range engine.Names() {
			eng := eng
			for _, workers := range []int{0, 1, 2, 4} {
				workers := workers
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name(), eng, workers), func(t *testing.T) {
					t.Parallel()
					p := smallParams(w)
					p.Workers = workers
					p.Engine = eng
					if _, err := workload.RunVerified(w, p, workload.RunConfig{Timeout: time.Minute}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestMultiFailureScriptConverges: every app survives a two-failure
// fault script — sequential kills of two different nodes, each
// resurrected from its checkpoint — and still matches its reference
// bit-exactly.
func TestMultiFailureScriptConverges(t *testing.T) {
	for _, w := range all(t) {
		w := w
		for _, eng := range engine.Names() {
			eng := eng
			for _, workers := range []int{0, 2} {
				workers := workers
				t.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name(), eng, workers), func(t *testing.T) {
					t.Parallel()
					p := smallParams(w)
					p.Workers = workers
					p.Engine = eng
					script := multiFailureScript(w)
					res, err := workload.RunVerified(w, p, workload.RunConfig{Script: script, Timeout: 2 * time.Minute})
					if err != nil {
						t.Fatal(err)
					}
					if res.Resurrections != len(script.Events) {
						t.Fatalf("resurrections = %d, want %d", res.Resurrections, len(script.Events))
					}
					if res.Rollbacks == 0 {
						t.Fatal("no MSG_ROLL deliveries: survivors never rolled back")
					}
				})
			}
		}
	}
}

// goSpawn runs distributed workers as goroutines against a real
// loopback hub — process-shaped in every way that matters (own router,
// own engine, own TCP connection) but cheap enough for unit tests.
func goSpawn(t *testing.T, w workload.Workload, p workload.Params) workload.SpawnFunc {
	t.Helper()
	return func(join string, node int64, resume string) error {
		go func() {
			cfg := workload.WorkerConfig{
				Join: join, Node: node, Params: p, Resume: resume,
				Timeout: time.Minute, RetryBase: 5 * time.Millisecond,
			}
			if _, err := workload.RunWorker(w, cfg); err != nil && err != workload.ErrNodeFailed {
				t.Errorf("%s worker %d (resume %q): %v", w.Name(), node, resume, err)
			}
		}()
		return nil
	}
}

// TestDistributedMatchesReference: every app over the TCP transport —
// one worker per node (plus spares for adoption) — produces results
// bit-identical to the sequential reference.
func TestDistributedMatchesReference(t *testing.T) {
	for _, w := range all(t) {
		w := w
		for _, eng := range engine.Names() {
			eng := eng
			t.Run(w.Name()+"/"+eng, func(t *testing.T) {
				t.Parallel()
				p := smallParams(w)
				p.Engine = eng
				res, err := workload.RunDistributed(w, p, nil,
					workload.DistributedConfig{Spawn: goSpawn(t, w, p)}, time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(p, res.Nodes); err != nil {
					t.Fatal(err)
				}
				if res.Resurrections != 0 {
					t.Fatalf("failure-free run saw %d resurrections", res.Resurrections)
				}
			})
		}
	}
}

// TestDistributedMultiFailureConverges: every app over the TCP
// transport survives its two-failure fault script (worker OS-process
// stand-ins killed and fresh ones resurrected from the shared store)
// and still matches the reference bit-exactly.
func TestDistributedMultiFailureConverges(t *testing.T) {
	for _, w := range all(t) {
		w := w
		for _, eng := range engine.Names() {
			eng := eng
			t.Run(w.Name()+"/"+eng, func(t *testing.T) {
				t.Parallel()
				p := smallParams(w)
				p.Engine = eng
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
				if res.Rollbacks == 0 {
					t.Fatal("no MSG_ROLL deliveries: survivors never rolled back")
				}
			})
		}
	}
}

// TestPipelineDistributedWithLinkFaults: the pipeline's cross-process
// stage handoff composes with frame-level link faults (every frame
// duplicated, small reorder window) — keyed idempotent delivery makes
// the result bit-identical anyway.
func TestPipelineDistributedWithLinkFaults(t *testing.T) {
	w, err := workload.Get("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(w)
	spawn := func(join string, node int64, resume string) error {
		go func() {
			cfg := workload.WorkerConfig{
				Join: join, Node: node, Params: p, Resume: resume,
				Timeout: time.Minute, RetryBase: 5 * time.Millisecond,
				Fault: &transport.FaultSpec{
					Dup:           func(src, dst, tag int64, occ int) bool { return true },
					ReorderWindow: 2,
				},
			}
			if _, err := workload.RunWorker(w, cfg); err != nil && err != workload.ErrNodeFailed {
				t.Errorf("pipeline worker %d: %v", node, err)
			}
		}()
		return nil
	}
	res, err := workload.RunDistributed(w, p, nil,
		workload.DistributedConfig{Spawn: spawn}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		t.Fatal(err)
	}
}

// TestCompileReturnsOneProgramPerShape: workload.Compile hands every
// caller of a shape the same *fir.Program — concurrently too — whatever
// the execution-side knobs say, and a different shape its own.
func TestCompileReturnsOneProgramPerShape(t *testing.T) {
	for _, w := range all(t) {
		p := smallParams(w)
		p.Steps += 100 // a shape no other test compiles
		const callers = 8
		var (
			wg    sync.WaitGroup
			progs [callers]*fir.Program
		)
		for i := range progs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				q := p
				q.Engine, q.Workers, q.Ckpt = engine.Names()[i%len(engine.Names())], i, "delta"
				prog, err := workload.Compile(w, q)
				if err != nil {
					t.Errorf("%s: Compile: %v", w.Name(), err)
				}
				progs[i] = prog
			}(i)
		}
		wg.Wait()
		for i := 1; i < callers; i++ {
			if progs[i] != progs[0] {
				t.Fatalf("%s: callers 0 and %d of one shape got different programs", w.Name(), i)
			}
		}
		p.Steps++
		if other, err := workload.Compile(w, p); err != nil || other == progs[0] {
			t.Fatalf("%s: another shape got the same program (err %v)", w.Name(), err)
		}
	}
}

// TestDistributedWorkersShareOneCompile: the four goroutine workers of a
// distributed run start one program between them, so the engine compiles
// it at most once.
func TestDistributedWorkersShareOneCompile(t *testing.T) {
	w, err := workload.Get("grid")
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Params{Nodes: 4, Size: 4, Aux: 8, Steps: 13, CheckpointInterval: 4, Engine: "jit"}
	before := engine.CacheStats()
	res, err := workload.RunDistributed(w, p, nil,
		workload.DistributedConfig{Spawn: goSpawn(t, w, p)}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		t.Fatal(err)
	}
	after := engine.CacheStats()
	if miss := after["jit_misses"] - before["jit_misses"]; miss > 1 {
		t.Fatalf("four workers of one run made %d jit artifact misses, want at most 1", miss)
	}
	if hit := after["jit_hits"] - before["jit_hits"]; hit < 3 {
		t.Fatalf("four workers of one run made %d jit artifact hits, want at least 3", hit)
	}
}

// TestSpareJoinsBeforeTheRunStarts: a spare worker that is slow to come up
// holds the start nodes back. Started at once, the pipeline's middle stage
// reaches its handoff while no worker hosts the spare; the hub refuses
// it, the stage carries on where it was, and its neighbours — already
// addressing the spare — wait for it until the run times out.
func TestSpareJoinsBeforeTheRunStarts(t *testing.T) {
	w, err := workload.Get("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(w)
	spare := w.SpareNodes(p)[0]
	spawn := goSpawn(t, w, p)
	slowSpare := func(join string, node int64, resume string) error {
		if node != spare {
			return spawn(join, node, resume)
		}
		go func() {
			time.Sleep(50 * time.Millisecond)
			_ = spawn(join, node, resume)
		}()
		return nil
	}
	res, err := workload.RunDistributed(w, p, nil,
		workload.DistributedConfig{Spawn: slowSpare}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p, res.Nodes); err != nil {
		t.Fatal(err)
	}
}
