package workload

import (
	"crypto/sha256"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/migrate"
)

func TestParseFailSpec(t *testing.T) {
	cases := []struct {
		spec string
		want FaultEvent
	}{
		{"1@2", FaultEvent{Node: 1, AfterCheckpoints: 2, Delay: DefaultRestartDelay}},
		{"0@4", FaultEvent{Node: 0, AfterCheckpoints: 4, Delay: DefaultRestartDelay}},
		{"3@1@50ms", FaultEvent{Node: 3, AfterCheckpoints: 1, Delay: 50 * time.Millisecond}},
		{"2@7@0s", FaultEvent{Node: 2, AfterCheckpoints: 7, Delay: 0}},
	}
	for _, c := range cases {
		got, err := ParseFailSpec(c.spec)
		if err != nil {
			t.Errorf("ParseFailSpec(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFailSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseFailSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",        // empty
		"1",       // no separator
		"@",       // both halves empty
		"x@2",     // bad node
		"-1@2",    // negative node
		"1@y",     // bad count
		"1@0",     // count must be positive
		"1@-2",    // negative count
		"1@2@zz",  // bad delay
		"1@2@3@4", // too many fields
		"1@2@-5s", // negative delay
	} {
		if ev, err := ParseFailSpec(spec); err == nil {
			t.Errorf("ParseFailSpec(%q) accepted: %+v", spec, ev)
		}
	}
}

func TestParseScript(t *testing.T) {
	src := `
# a two-failure scenario
fail 1@2

fail 0@4 delay=50ms   # trailing comment
`
	s, err := ParseScriptString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Node: 1, AfterCheckpoints: 2, Delay: DefaultRestartDelay},
		{Node: 0, AfterCheckpoints: 4, Delay: 50 * time.Millisecond},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("events = %+v, want %+v", s.Events, want)
	}
	for i := range want {
		if !reflect.DeepEqual(s.Events[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, s.Events[i], want[i])
		}
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, src := range []string{
		"resurrect 1",             // unknown verb
		"fail",                    // missing spec
		"fail 1@2 delay",          // malformed option
		"fail 1@2 after=5ms",      // unknown option
		"fail 1@2 delay=xx",       // bad duration
		"fail 1@2 delay=1s extra", // too many fields
	} {
		if s, err := ParseScriptString(src); err == nil {
			t.Errorf("ParseScriptString(%q) accepted: %+v", src, s.Events)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("ParseScriptString(%q) error lacks line number: %v", src, err)
		}
	}
}

func TestOneFailureSugar(t *testing.T) {
	s := OneFailure(2, 3, time.Second)
	if len(s.Events) != 1 || !reflect.DeepEqual(s.Events[0], FaultEvent{Node: 2, AfterCheckpoints: 3, Delay: time.Second}) {
		t.Fatalf("OneFailure = %+v", s.Events)
	}
}

// TestScriptDriverSequencing pins the scenario engine's ordering
// contract: event i+1 arms only after event i's resurrection completed,
// even when its own trigger count was reached earlier.
func TestScriptDriverSequencing(t *testing.T) {
	script := &FaultScript{Events: []FaultEvent{
		{Node: 1, AfterCheckpoints: 1},
		{Node: 2, AfterCheckpoints: 1},
	}}
	var mu struct {
		failed      []int64
		resurrected []int64
	}
	release := make(chan struct{})
	d := newScriptDriver(script,
		func(n int64) string { return "ck" + string(rune('0'+n)) },
		func(n int64) { mu.failed = append(mu.failed, n) },
		func(n int64, ck string) error {
			<-release
			mu.resurrected = append(mu.resurrected, n)
			return nil
		})

	// Both triggers satisfied immediately; only event 0 may fire.
	d.OnPut("ck1", 1)
	d.OnPut("ck2", 1)
	if len(mu.failed) != 1 || mu.failed[0] != 1 {
		t.Fatalf("failed = %v, want just node 1", mu.failed)
	}
	close(release) // let both resurrections run
	deadline := time.Now().Add(5 * time.Second)
	for {
		fired, err := d.finish()
		if err == nil && fired == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("script never completed: fired=%d err=%v (failed=%v resurrected=%v)",
				fired, err, mu.failed, mu.resurrected)
		}
		time.Sleep(time.Millisecond)
	}
	if len(mu.failed) != 2 || mu.failed[1] != 2 {
		t.Fatalf("failed = %v, want [1 2]", mu.failed)
	}
	if len(mu.resurrected) != 2 || mu.resurrected[0] != 1 || mu.resurrected[1] != 2 {
		t.Fatalf("resurrected = %v, want [1 2]", mu.resurrected)
	}
}

// TestParseScriptNewKinds covers the crashresurrect / partition /
// delay=ck: grammar.
func TestParseScriptNewKinds(t *testing.T) {
	src := `
fail 2@1 delay=ck:2
crashresurrect 1@3 delay=ck:1
crashresurrect 0@2 delay=10ms
partition 0,1|2 after=2 heal=4
partition 3|0,1,2 heal=1
storekill 1@5 delay=never
`
	s, err := ParseScriptString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Node: 2, AfterCheckpoints: 1, DelayCk: 2},
		{Node: 1, AfterCheckpoints: 3, Kind: KindCrashResurrect, DelayCk: 1},
		{Node: 0, AfterCheckpoints: 2, Kind: KindCrashResurrect, Delay: 10 * time.Millisecond},
		{Kind: KindPartition, SetA: []int64{0, 1}, SetB: []int64{2}, AfterCheckpoints: 2, HealWrites: 4},
		{Kind: KindPartition, SetA: []int64{3}, SetB: []int64{0, 1, 2}, AfterCheckpoints: 1, HealWrites: 1},
		{Node: 1, AfterCheckpoints: 5, Kind: KindStoreKill, NoRevive: true, Delay: DefaultRestartDelay},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("events = %+v, want %+v", s.Events, want)
	}
	for i := range want {
		if !reflect.DeepEqual(s.Events[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, s.Events[i], want[i])
		}
	}
}

// TestParseScriptMalformed: every malformed form is rejected with its
// line number, including the new partition / crashresurrect grammar.
func TestParseScriptMalformed(t *testing.T) {
	cases := []struct {
		src  string
		line string // expected "line N" fragment
	}{
		{"resurrect 1", "line 1"},                      // unknown event kind
		{"fail 1@2\nnuke 0@1", "line 2"},               // unknown kind, later line
		{"fail 1@2 delay=ck:", "line 1"},               // empty ck count
		{"fail 1@2 delay=ck:0", "line 1"},              // ck count must be positive
		{"fail 1@2 delay=ck:x", "line 1"},              // ck count not a number
		{"\n\nfail 1@2 delay=zz", "line 3"},            // bad duration, line 3
		{"crashresurrect 1", "line 1"},                 // missing spec
		{"crashresurrect 1@2 delay=never", "line 1"},   // never is storekill-only
		{"crashresurrect x@2", "line 1"},               // bad node
		{"storekill 1@2 delay=ck:3", "line 1"},         // ck delay is not for storekill
		{"partition 0,1", "line 1"},                    // missing heal=
		{"partition 0,1|2", "line 1"},                  // still missing heal=
		{"partition 0,1|2 heal=", "line 1"},            // malformed heal arg
		{"partition 0,1|2 heal=x", "line 1"},           // heal not a number
		{"partition 0,1|2 heal=0", "line 1"},           // heal must be positive
		{"partition 0,1|2 heal=-3", "line 1"},          // negative heal
		{"partition 0,1|2 after=0 heal=2", "line 1"},   // after must be positive
		{"partition 0,1|2 after=x heal=2", "line 1"},   // after not a number
		{"partition 0|1 wedge=3 heal=2", "line 1"},     // unknown option
		{"partition 0,x|2 heal=2", "line 1"},           // bad node in set
		{"partition |2 heal=2", "line 1"},              // empty left set
		{"partition 0,1 2 heal=2", "line 1"},           // no | separator
		{"partition 0,1|1,2 heal=2", "line 1"},         // overlapping sets
		{"fail 1@2\npartition 0|1,x heal=2", "line 2"}, // bad set, line 2
	}
	for _, c := range cases {
		s, err := ParseScriptString(c.src)
		if err == nil {
			t.Errorf("ParseScriptString(%q) accepted: %+v", c.src, s.Events)
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("ParseScriptString(%q) error lacks %q: %v", c.src, c.line, err)
		}
	}
}

// TestFormatScriptRoundTrip: FormatScript output re-parses to the same
// events — the contract repro files rely on.
func TestFormatScriptRoundTrip(t *testing.T) {
	src := &FaultScript{Events: []FaultEvent{
		{Node: 1, AfterCheckpoints: 2, Delay: DefaultRestartDelay},
		{Node: 2, AfterCheckpoints: 1, DelayCk: 3},
		{Node: 0, AfterCheckpoints: 1, Kind: KindCrashResurrect, DelayCk: 1},
		{Kind: KindPartition, SetA: []int64{0, 2}, SetB: []int64{1}, AfterCheckpoints: 2, HealWrites: 4},
		{Node: 1, AfterCheckpoints: 4, Kind: KindStoreKill, NoRevive: true, Delay: DefaultRestartDelay},
		{Node: 0, AfterCheckpoints: 3, Kind: KindStoreKill, Delay: 10 * time.Millisecond},
	}}
	text := FormatScript(src)
	back, err := ParseScriptString(text)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", text, err)
	}
	if !reflect.DeepEqual(back.Events, src.Events) {
		t.Fatalf("round trip:\n%s\ngot  %+v\nwant %+v", text, back.Events, src.Events)
	}
}

// TestScriptDriverCkDelay: a delay=ck:N resurrection fires once N further
// store writes land, not on a wall clock.
func TestScriptDriverCkDelay(t *testing.T) {
	script := &FaultScript{Events: []FaultEvent{
		{Node: 1, AfterCheckpoints: 1, DelayCk: 2},
	}}
	resurrected := make(chan int64, 1)
	d := newScriptDriver(script,
		func(n int64) string { return "ck1" },
		func(n int64) {},
		func(n int64, ck string) error { resurrected <- n; return nil })
	d.setStallTimeout(30 * time.Second) // the puts below must be the trigger
	d.OnPut("ck1", 1)                   // fires the kill; resurrect waits for 2 more puts
	select {
	case n := <-resurrected:
		t.Fatalf("node %d resurrected before the ck trigger", n)
	case <-time.After(20 * time.Millisecond):
	}
	d.OnPut("ck0", 1)
	d.OnPut("ck0", 2)
	select {
	case <-resurrected:
	case <-time.After(5 * time.Second):
		t.Fatal("resurrection never fired after 2 further puts")
	}
}

// TestCodeObjectPutIsNotACheckpoint: the store a run's fault script
// watches passes a code-object Put through but counts it neither for
// its name nor toward a delay=ck: resurrection; checkpoint writes still
// count.
func TestCodeObjectPutIsNotACheckpoint(t *testing.T) {
	script := &FaultScript{Events: []FaultEvent{
		{Node: 1, AfterCheckpoints: 1, DelayCk: 1},
	}}
	failed := make(chan int64, 1)
	resurrected := make(chan int64, 1)
	d := newScriptDriver(script,
		func(n int64) string { return "ck1" },
		func(n int64) { failed <- n },
		func(n int64, ck string) error { resurrected <- n; return nil })
	d.setStallTimeout(30 * time.Second)
	backing := cluster.NewMemStore()
	st := &observableStore{Store: backing, onPut: d.OnPut, puts: make(map[string]int)}
	code := migrate.CodeName(sha256.Sum256([]byte("program")))

	if err := st.Put(code, []byte("program")); err != nil {
		t.Fatal(err)
	}
	if _, err := backing.Get(code); err != nil {
		t.Fatalf("code object not written through: %v", err)
	}
	if err := st.Put("ck1", []byte("image")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("the first checkpoint write did not fire the kill")
	}
	if err := st.Put(code, []byte("program")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resurrected:
		t.Fatal("a code-object put counted toward delay=ck:1")
	case <-time.After(20 * time.Millisecond):
	}
	if err := st.Put("ck0", []byte("image")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resurrected:
	case <-time.After(5 * time.Second):
		t.Fatal("resurrection never fired after 1 further checkpoint write")
	}
	if st.puts[code] != 0 || st.puts["ck1"] != 1 {
		t.Fatalf("per-name counts %v: want the code object uncounted", st.puts)
	}
}

// TestScriptDriverPartition: a partition event cuts at after=, heals at
// heal= further store writes, and only then arms the next event.
func TestScriptDriverPartition(t *testing.T) {
	script := &FaultScript{Events: []FaultEvent{
		{Kind: KindPartition, SetA: []int64{0}, SetB: []int64{1}, AfterCheckpoints: 2, HealWrites: 2},
		{Node: 1, AfterCheckpoints: 1},
	}}
	var mu sync.Mutex
	var cuts, heals int
	failed := make(chan int64, 1)
	d := newScriptDriver(script,
		func(n int64) string { return "ck1" },
		func(n int64) { failed <- n },
		func(n int64, ck string) error { return nil })
	d.setStallTimeout(30 * time.Second)
	d.setPartitioner(
		func(a, b []int64) { mu.Lock(); cuts++; mu.Unlock() },
		func() { mu.Lock(); heals++; mu.Unlock() })

	d.OnPut("ck1", 1)
	mu.Lock()
	if cuts != 0 {
		mu.Unlock()
		t.Fatal("partition fired before after=2")
	}
	mu.Unlock()
	d.OnPut("ck1", 2) // cut fires here
	mu.Lock()
	if cuts != 1 {
		mu.Unlock()
		t.Fatalf("cuts = %d after 2 puts, want 1", cuts)
	}
	mu.Unlock()
	d.OnPut("ck1", 3)
	d.OnPut("ck1", 4) // heal trigger reached
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		h := heals
		mu.Unlock()
		if h == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heals = %d, want 1", h)
		}
		time.Sleep(time.Millisecond)
	}
	// Event 2 (fail of node 1, already past its trigger) arms after heal.
	select {
	case n := <-failed:
		if n != 1 {
			t.Fatalf("failed node %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fail event never armed after the heal")
	}
}
