package chaos

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"

	_ "repro/internal/workload/apps" // register the workloads
)

// TestGenerateDeterministic: the same seed always derives the same
// scenario, and nearby seeds differ (the generator actually draws from
// the stream).
func TestGenerateDeterministic(t *testing.T) {
	var prev *Scenario
	same := 0
	for seed := int64(1); seed <= 50; seed++ {
		a, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
		if prev != nil && reflect.DeepEqual(a.Params, prev.Params) && a.App == prev.App {
			same++
		}
		prev = a
	}
	if same > 25 {
		t.Fatalf("%d/50 consecutive seeds produced identical scenarios", same)
	}
}

// TestGenerateValid: every generated scenario passes its workload's own
// validation and its script events reference real nodes.
func TestGenerateValid(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w, err := workload.Get(s.App)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := workload.Normalize(w, s.Params); err != nil {
			t.Fatalf("seed %d: invalid params: %v", seed, err)
		}
		for _, ev := range s.Script.Events {
			if ev.Kind == workload.KindStoreKill && s.Replicas == 0 {
				t.Fatalf("seed %d: storekill event without a replicated store", seed)
			}
		}
	}
}

// TestGenerateCoversEventMix: across a modest seed range the generator
// emits every event kind and every network condition.
func TestGenerateCoversEventMix(t *testing.T) {
	kinds := map[string]int{}
	net := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		s, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s.Script.Events {
			k := ev.Kind
			if k == "" {
				k = workload.KindFail
			}
			kinds[k]++
			if ev.DelayCk > 0 {
				kinds["delay=ck"]++
			}
		}
		if n := s.Net; !n.Zero() {
			if n.DropPct > 0 {
				net["drop"]++
			}
			if n.DupPct > 0 {
				net["dup"]++
			}
			if n.HoldPct > 0 {
				net["hold"]++
			}
			if n.Reorder > 0 {
				net["reorder"]++
			}
		}
	}
	for _, k := range []string{workload.KindFail, workload.KindStoreKill, workload.KindPartition, workload.KindCrashResurrect, "delay=ck"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in 400 seeds (mix: %v)", k, kinds)
		}
	}
	for _, k := range []string{"drop", "dup", "hold", "reorder"} {
		if net[k] == 0 {
			t.Errorf("no %s network condition in 400 seeds (mix: %v)", k, net)
		}
	}
}

// TestReproRoundTrip: FormatRepro → ParseRepro reproduces the scenario
// exactly (script events included) for a spread of generated scenarios.
func TestReproRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		s, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRepro(strings.NewReader(FormatRepro(s)))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, FormatRepro(s))
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d round-trip mismatch:\n%#v\nvs\n%#v\nfile:\n%s", seed, got, s, FormatRepro(s))
		}
	}
}

// TestReproIsValidMojrunScript: every chaos-specific line in a repro
// file is a comment, so the workload script parser accepts the file
// as-is (what makes repros directly usable with mojrun -script).
func TestReproIsValidMojrunScript(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		s, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		script, err := workload.ParseScriptString(FormatRepro(s))
		if err != nil {
			t.Fatalf("seed %d: mojrun-compatible parse failed: %v\n%s", seed, err, FormatRepro(s))
		}
		want := 0
		if s.Script != nil {
			want = len(s.Script.Events)
		}
		if len(script.Events) != want {
			t.Fatalf("seed %d: script parse saw %d events, scenario has %d", seed, len(script.Events), want)
		}
	}
}

// TestExecuteSmallSweep: a short live campaign over the real workloads —
// every scenario must be ok or short (any failure here is a genuine
// robustness bug; commit a repro to the corpus alongside the fix).
func TestExecuteSmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos sweep")
	}
	reg := obs.NewRegistry()
	res, err := Fuzz(FuzzConfig{
		Seeds: 12,
		Exec:  ExecConfig{Timeout: 30 * time.Second, Metrics: reg, Logf: t.Logf},
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("seed %d failed (%s): %v\nshrunk: %s\nrepro:\n%s",
			f.Seed, f.Outcome, f.Err, f.Shrunk, FormatRepro(f.Shrunk))
	}
	if res.Scenarios != 12 {
		t.Fatalf("ran %d scenarios, want 12", res.Scenarios)
	}
}

// TestExecuteJoinsWorkers: a distributed scenario with a resurrection
// leaves none of its workers running once Execute has returned, and no
// goroutine behind once a short settle has let Execute's own runner exit.
// Unjoined, the killed and the finished incarnations are still closing
// their links for a millisecond or so after the verdict.
func TestExecuteJoinsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("live distributed scenarios")
	}
	for _, repro := range []string{`#! app=grid nodes=2 size=3 steps=6 ck=2 aux=6 workers=1 engine=jit ckpt=async
#! net salt=3303016329424715791 drop=21 dup=7 hold=20 holdbudget=3 reorder=0
crashresurrect 1@2 delay=20ms
`, `#! app=grid nodes=3 size=5 steps=2 ck=1 aux=6 engine=jit ckpt=async
#! net salt=4231909740397749873 drop=25 dup=0 hold=0 holdbudget=0 reorder=0
fail 2@1 delay=ck:2
crashresurrect 2@2 delay=2ms
`} {
		s, err := ParseRepro(strings.NewReader(repro))
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if rep := Execute(s, ExecConfig{Timeout: 30 * time.Second}); rep.Outcome != OutcomeOK {
			t.Fatalf("%s: %s: %v", s, rep.Outcome, rep.Err)
		}
		buf := make([]byte, 1<<20)
		if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "workload.RunWorker") {
			t.Fatalf("%s: a worker outlived Execute:\n%s", s, stacks)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(100 * time.Millisecond); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Fatalf("%s: %d goroutines after Execute, %d before:\n%s", s, after, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestShrinkDropsIrrelevantParts: shrinking a scenario whose failure is
// injected (a canned predicate, not a real run) strips the events and
// conditions the failure does not depend on.
func TestShrinkCandidatesShrink(t *testing.T) {
	s, err := Generate(7, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Force a rich scenario for the structural check.
	s.Net = &NetProfile{Salt: 1, DupPct: 20, HoldPct: 10, HoldBudget: 2, Reorder: 2}
	s.Script = &workload.FaultScript{Events: []workload.FaultEvent{
		{Node: 0, AfterCheckpoints: 1, Delay: time.Millisecond},
		{Node: 1, AfterCheckpoints: 1, DelayCk: 1},
	}}
	cands := candidates(s)
	if len(cands) == 0 {
		t.Fatal("no candidates for a rich scenario")
	}
	droppedNet, droppedEvent := false, false
	for _, c := range cands {
		if c.Net.Zero() && !s.Net.Zero() {
			droppedNet = true
		}
		if c.Script != nil && len(c.Script.Events) == len(s.Script.Events)-1 {
			droppedEvent = true
		}
		if !validScenario(c) {
			t.Fatalf("invalid candidate: %s", c)
		}
	}
	if !droppedNet || !droppedEvent {
		t.Fatalf("candidate set misses basic shrinks (net=%v event=%v)", droppedNet, droppedEvent)
	}
}

// TestCorpusReplays: every committed repro in the regression corpus
// still executes clean (ok or short — never mismatch/hang/panic). Run
// under -race in CI.
func TestCorpusReplays(t *testing.T) {
	reports, err := ReplayCorpus("corpus", ExecConfig{Timeout: 45 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("regression corpus is empty")
	}
	for path, rep := range reports {
		if rep.Outcome.Failed() {
			t.Errorf("%s: %s: %v", path, rep.Outcome, rep.Err)
		} else {
			t.Logf("%s: %s in %s", path, rep.Outcome, rep.Elapsed)
		}
	}
}
