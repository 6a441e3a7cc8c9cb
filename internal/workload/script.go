package workload

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/migrate"
	"repro/internal/store"
)

// DefaultRestartDelay is the restart delay a fault event without an
// explicit delay uses: the time a failure detector plus resurrection
// daemon would need. Timing-sensitive scripts (fuzzer repros, CI) should
// prefer the checkpoint-count trigger (delay=ck:<n>) instead, which is
// independent of wall-clock speed.
const DefaultRestartDelay = 25 * time.Millisecond

// DefaultStallTimeout bounds how long a put-count trigger (delay=ck:<n>,
// partition heal) waits for further checkpoint writes before firing
// anyway. It is an anti-wedge fallback only: if every survivor is parked
// on the dead node (or inside the partition), no more checkpoints land
// and the trigger would otherwise never fire.
const DefaultStallTimeout = 2 * time.Second

// FaultEvent is one scripted failure. The default kind kills Node after
// it has written AfterCheckpoints checkpoints (cumulative since run
// start), then resurrects it from its latest checkpoint after Delay (or
// after DelayCk further store writes, when set). KindStoreKill instead
// kills store replica Node (an index into the replicated store's replica
// set) after AfterCheckpoints total store writes, reviving it after Delay
// unless NoRevive is set. KindCrashResurrect is a fail whose node is
// killed a second time during its own resurrection — before the revived
// incarnation runs a single step — and then resurrected again.
// KindPartition cuts the network between SetA and SetB after
// AfterCheckpoints total store writes and heals it HealWrites store
// writes later; frames crossing the cut are withheld, not lost.
type FaultEvent struct {
	Node             int64
	AfterCheckpoints int
	Delay            time.Duration
	// Kind is "" / KindFail for a node kill, or one of the kinds below.
	Kind string
	// NoRevive leaves a killed store replica down for the rest of the
	// run — the surviving quorum must carry it.
	NoRevive bool
	// DelayCk, when > 0, replaces the wall-clock Delay with a
	// store-write-count trigger: the resurrection starts after this many
	// further checkpoint-store writes (script form delay=ck:<n>). Repros
	// using it are timing-independent and CI-stable.
	DelayCk int
	// SetA, SetB are a partition event's node sets.
	SetA, SetB []int64
	// HealWrites is a partition's heal trigger: heal after this many
	// further checkpoint-store writes.
	HealWrites int
}

// Fault event kinds.
const (
	KindFail           = "fail"
	KindStoreKill      = "storekill"
	KindPartition      = "partition"
	KindCrashResurrect = "crashresurrect"
)

// FaultScript is a declarative fault scenario: an ordered list of
// events. Events fire strictly in order — event i+1 arms only once event
// i's resurrection has completed — so "multiple sequential failures in
// one run" is well-defined and the run converges.
type FaultScript struct {
	Events []FaultEvent
}

// OneFailure is the single-event script: kill node after its
// afterCheckpoints-th checkpoint, resurrect it after delay.
func OneFailure(node int64, afterCheckpoints int, delay time.Duration) *FaultScript {
	return &FaultScript{Events: []FaultEvent{{Node: node, AfterCheckpoints: afterCheckpoints, Delay: delay}}}
}

// ParseFailSpec parses one -fail specification:
//
//	"node@checkpoints"          e.g. "1@2"
//	"node@checkpoints@delay"    e.g. "0@4@50ms" or "0@4@ck:2"
//
// It returns an error instead of exiting, so callers (flag parsing,
// script files) can report context.
func ParseFailSpec(spec string) (FaultEvent, error) {
	parts := strings.Split(spec, "@")
	if len(parts) < 2 || len(parts) > 3 {
		return FaultEvent{}, fmt.Errorf(`bad fail spec %q, want "node@checkpoints" or "node@checkpoints@delay"`, spec)
	}
	node, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || node < 0 {
		return FaultEvent{}, fmt.Errorf("bad fail spec %q: node %q must be a non-negative integer", spec, parts[0])
	}
	after, err := strconv.Atoi(parts[1])
	if err != nil || after < 1 {
		return FaultEvent{}, fmt.Errorf("bad fail spec %q: checkpoint count %q must be a positive integer", spec, parts[1])
	}
	ev := FaultEvent{Node: node, AfterCheckpoints: after, Delay: DefaultRestartDelay}
	if len(parts) == 3 {
		if err := parseDelayArg(parts[2], &ev); err != nil {
			return FaultEvent{}, fmt.Errorf("bad fail spec %q: %v", spec, err)
		}
	}
	return ev, nil
}

// parseDelayArg parses the value of a delay= option ("50ms" or "ck:<n>")
// into ev. "never" is handled by the caller (it is storekill-only).
func parseDelayArg(val string, ev *FaultEvent) error {
	if n, ok := strings.CutPrefix(val, "ck:"); ok {
		k, err := strconv.Atoi(n)
		if err != nil || k < 1 {
			return fmt.Errorf("delay %q: checkpoint count after \"ck:\" must be a positive integer", val)
		}
		ev.DelayCk = k
		ev.Delay = 0
		return nil
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return fmt.Errorf("delay %q: %v", val, err)
	}
	if d < 0 {
		return fmt.Errorf("delay %q must be non-negative", val)
	}
	ev.Delay = d
	return nil
}

// parseNodeSet parses a comma-separated node list ("0,1,3").
func parseNodeSet(s string) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty node set")
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("node %q must be a non-negative integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parsePartition parses a partition event's arguments:
//
//	partition A|B [after=N] heal=M
//
// A and B are comma-separated node sets; the cut starts after N total
// store writes (default 1) and heals M store writes later.
func parsePartition(fields []string) (FaultEvent, error) {
	if len(fields) < 3 || len(fields) > 4 {
		return FaultEvent{}, fmt.Errorf(`want "partition A|B [after=N] heal=M" (A, B comma-separated node sets)`)
	}
	halves := strings.Split(fields[1], "|")
	if len(halves) != 2 {
		return FaultEvent{}, fmt.Errorf(`node sets %q: want two sets separated by "|", e.g. "0,1|2"`, fields[1])
	}
	a, err := parseNodeSet(halves[0])
	if err != nil {
		return FaultEvent{}, fmt.Errorf("node sets %q: %v", fields[1], err)
	}
	b, err := parseNodeSet(halves[1])
	if err != nil {
		return FaultEvent{}, fmt.Errorf("node sets %q: %v", fields[1], err)
	}
	seen := make(map[int64]bool)
	for _, n := range a {
		seen[n] = true
	}
	for _, n := range b {
		if seen[n] {
			return FaultEvent{}, fmt.Errorf("node sets %q: node %d appears on both sides", fields[1], n)
		}
	}
	ev := FaultEvent{Kind: KindPartition, AfterCheckpoints: 1, SetA: a, SetB: b}
	healSet := false
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "after="):
			n, err := strconv.Atoi(f[len("after="):])
			if err != nil || n < 1 {
				return FaultEvent{}, fmt.Errorf("malformed %q: after= wants a positive integer (total store writes)", f)
			}
			ev.AfterCheckpoints = n
		case strings.HasPrefix(f, "heal="):
			n, err := strconv.Atoi(f[len("heal="):])
			if err != nil || n < 1 {
				return FaultEvent{}, fmt.Errorf("malformed %q: heal= wants a positive integer (store writes until heal)", f)
			}
			ev.HealWrites = n
			healSet = true
		default:
			return FaultEvent{}, fmt.Errorf("unknown option %q", f)
		}
	}
	if !healSet {
		return FaultEvent{}, fmt.Errorf(`missing heal= (a partition that never heals would wedge the run)`)
	}
	return ev, nil
}

// ParseScript reads a scenario script: one event per line, in firing
// order. Blank lines and '#' comments are skipped. Errors carry the line
// number.
//
//	# kill node 1 after its 2nd checkpoint, resurrect after the default delay
//	fail 1@2
//	# then kill node 0 after its 4th checkpoint, resurrect after 50ms
//	fail 0@4 delay=50ms
//	# kill node 2 after its 1st checkpoint, resurrect after 2 more store writes
//	fail 2@1 delay=ck:2
//	# kill node 1 again DURING its own resurrection, then resurrect again
//	crashresurrect 1@3 delay=ck:1
//	# cut nodes {0,1} off from {2} after 2 store writes, heal 4 writes later
//	partition 0,1|2 after=2 heal=4
//	# kill store replica 2 after the 3rd store write, revive after 10ms
//	storekill 2@3 delay=10ms
//	# kill store replica 1 after the 5th store write, leave it down
//	storekill 1@5 delay=never
func ParseScript(r io.Reader) (*FaultScript, error) {
	s := &FaultScript{}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var ev FaultEvent
		var err error
		switch fields[0] {
		case KindFail, KindStoreKill, KindCrashResurrect:
			ev, err = parseKillLine(fields)
		case KindPartition:
			ev, err = parsePartition(fields)
		default:
			err = fmt.Errorf("unknown event kind %q (want fail, storekill, crashresurrect or partition)", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("script line %d: %v", lineno, err)
		}
		s.Events = append(s.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseKillLine parses a fail/storekill/crashresurrect line.
func parseKillLine(fields []string) (FaultEvent, error) {
	kind := fields[0]
	if len(fields) < 2 || len(fields) > 3 {
		usage := kind + " node@checkpoints [delay=D|delay=ck:N]"
		if kind == KindStoreKill {
			usage = "storekill replica@puts [delay=D|delay=never]"
		}
		return FaultEvent{}, fmt.Errorf("want %q", usage)
	}
	ev, err := ParseFailSpec(fields[1])
	if err != nil {
		return FaultEvent{}, err
	}
	if kind != KindFail {
		ev.Kind = kind
	}
	if len(fields) == 3 {
		val, ok := strings.CutPrefix(fields[2], "delay=")
		if !ok {
			return FaultEvent{}, fmt.Errorf("unknown option %q", fields[2])
		}
		switch {
		case val == "never":
			if ev.Kind != KindStoreKill {
				return FaultEvent{}, fmt.Errorf("delay=never only applies to storekill (a dead node would hang the run)")
			}
			ev.NoRevive = true
		default:
			if err := parseDelayArg(val, &ev); err != nil {
				return FaultEvent{}, err
			}
			if ev.DelayCk > 0 && ev.Kind == KindStoreKill {
				return FaultEvent{}, fmt.Errorf("delay=ck: does not apply to storekill (replica revival is not checkpoint-triggered)")
			}
		}
	}
	return ev, nil
}

// ParseScriptString is ParseScript over a string.
func ParseScriptString(text string) (*FaultScript, error) {
	return ParseScript(strings.NewReader(text))
}

// String renders the event in script-line form, round-trippable through
// ParseScript.
func (ev FaultEvent) String() string {
	switch ev.Kind {
	case KindPartition:
		return fmt.Sprintf("partition %s|%s after=%d heal=%d",
			joinNodes(ev.SetA), joinNodes(ev.SetB), ev.AfterCheckpoints, ev.HealWrites)
	case KindStoreKill:
		d := "delay=" + ev.Delay.String()
		if ev.NoRevive {
			d = "delay=never"
		}
		return fmt.Sprintf("storekill %d@%d %s", ev.Node, ev.AfterCheckpoints, d)
	default:
		kind := ev.Kind
		if kind == "" {
			kind = KindFail
		}
		d := "delay=" + ev.Delay.String()
		if ev.DelayCk > 0 {
			d = fmt.Sprintf("delay=ck:%d", ev.DelayCk)
		}
		return fmt.Sprintf("%s %d@%d %s", kind, ev.Node, ev.AfterCheckpoints, d)
	}
}

func joinNodes(nodes []int64) string {
	sorted := append([]int64{}, nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	parts := make([]string, len(sorted))
	for i, n := range sorted {
		parts[i] = strconv.FormatInt(n, 10)
	}
	return strings.Join(parts, ",")
}

// FormatScript renders a script in the -script file format, one event per
// line.
func FormatScript(s *FaultScript) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, ev := range s.Events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Scenario engine

// scriptDriver fires a FaultScript against a running cluster. It is
// triggered by checkpoint writes (the observable the paper's failure
// plans key on): OnPut feeds it every successful checkpoint store write
// with a per-name cumulative count; when the armed event's node has
// written enough checkpoints, the driver kills it and schedules the
// resurrection. Events fire strictly in script order.
type scriptDriver struct {
	ckName    func(node int64) string
	fail      func(node int64)
	resurrect func(node int64, checkpoint string) error

	// killReplica/reviveReplica drive storekill events against the
	// replicated store layer, when the run's store has one (see
	// setStoreFaults). Nil until set; a storekill event with no
	// controller is reported by finish.
	killReplica   func(replica int) error
	reviveReplica func(replica int) error

	// partition/heal drive partition events; runners wire them to the
	// router (in-process) or the hub (distributed).
	partition func(a, b []int64)
	heal      func()

	// crashResurrect performs a resurrect-with-rekill: the node is failed
	// again during its own resurrection, then resurrected a second time.
	// Runners wire it (run.go arms the engine's resurrection-window hook;
	// distributed.go re-kills the resurrection worker after it joins).
	crashResurrect func(node int64, checkpoint string) error

	// stall bounds put-count triggers (delay=ck:, partition heal): if no
	// further store writes land within it, the trigger fires anyway.
	stall time.Duration

	mu        sync.Mutex
	events    []FaultEvent
	next      int  // index of the armed event
	inFlight  bool // armed event fired, resurrection pending
	counts    map[string]int
	totalPuts int // cumulative store writes across all names
	errs      []error
	fired     int
}

func newScriptDriver(script *FaultScript, ckName func(int64) string,
	fail func(int64), resurrect func(int64, string) error) *scriptDriver {
	d := &scriptDriver{
		ckName:    ckName,
		fail:      fail,
		resurrect: resurrect,
		counts:    make(map[string]int),
		stall:     DefaultStallTimeout,
	}
	if script != nil {
		d.events = script.Events
	}
	return d
}

// wireStoreFaults finds the quorum-replicated layer inside s (beneath
// any gate or instrumentation wrappers) and arms the driver's storekill
// controls against it. No-op when s has no replicated layer; a storekill
// event then fails with a clear error instead of wedging the script.
func wireStoreFaults(d *scriptDriver, s migrate.Store) {
	rf := store.FindReplicated(s)
	if rf == nil {
		return
	}
	n := rf.NReplicas()
	check := func(i int) error {
		if i < 0 || i >= n {
			return fmt.Errorf("replica %d out of range (store has %d replicas)", i, n)
		}
		return nil
	}
	d.setStoreFaults(
		func(i int) error {
			if err := check(i); err != nil {
				return err
			}
			rf.KillReplica(i)
			return nil
		},
		func(i int) error {
			if err := check(i); err != nil {
				return err
			}
			rf.ReviveReplica(i)
			return nil
		})
}

// setStoreFaults hands the driver the replica kill/revive controls of
// the run's replicated store layer. Runners call it after construction
// when (and only when) the configured store has such a layer.
func (d *scriptDriver) setStoreFaults(kill, revive func(replica int) error) {
	d.mu.Lock()
	d.killReplica = kill
	d.reviveReplica = revive
	d.mu.Unlock()
}

// setPartitioner hands the driver the runner's partition controls.
func (d *scriptDriver) setPartitioner(partition func(a, b []int64), heal func()) {
	d.mu.Lock()
	d.partition = partition
	d.heal = heal
	d.mu.Unlock()
}

// setCrashResurrect hands the driver the runner's resurrect-with-rekill
// implementation.
func (d *scriptDriver) setCrashResurrect(fn func(node int64, checkpoint string) error) {
	d.mu.Lock()
	d.crashResurrect = fn
	d.mu.Unlock()
}

// setStallTimeout overrides the put-count trigger fallback bound.
func (d *scriptDriver) setStallTimeout(t time.Duration) {
	d.mu.Lock()
	if t > 0 {
		d.stall = t
	}
	d.mu.Unlock()
}

// OnPut observes one successful checkpoint write. Safe for concurrent
// use; may fire an event.
func (d *scriptDriver) OnPut(name string, count int) {
	d.mu.Lock()
	if count > d.counts[name] {
		d.counts[name] = count
	}
	d.totalPuts++
	d.maybeFireLocked()
	d.mu.Unlock()
}

// waitPuts blocks until the cumulative store-write count reaches target
// or the stall deadline passes (the anti-wedge fallback: survivors may
// all be parked on the event's victim, writing nothing).
func (d *scriptDriver) waitPuts(target int, deadline time.Time) {
	for {
		d.mu.Lock()
		n := d.totalPuts
		d.mu.Unlock()
		if n >= target || !time.Now().Before(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDelay waits out an event's resurrection delay: DelayCk further
// store writes when set, the wall-clock Delay otherwise.
func (d *scriptDriver) waitDelay(ev FaultEvent, basePuts int) {
	if ev.DelayCk > 0 {
		d.mu.Lock()
		stall := d.stall
		d.mu.Unlock()
		d.waitPuts(basePuts+ev.DelayCk, time.Now().Add(stall))
		return
	}
	time.Sleep(ev.Delay)
}

// maybeFireLocked fires the armed event if its trigger is satisfied and
// no earlier event is still resurrecting.
func (d *scriptDriver) maybeFireLocked() {
	if d.inFlight || d.next >= len(d.events) {
		return
	}
	ev := d.events[d.next]
	switch ev.Kind {
	case KindStoreKill:
		d.maybeFireStoreKillLocked(ev)
		return
	case KindPartition:
		d.maybeFirePartitionLocked(ev)
		return
	}
	name := d.ckName(ev.Node)
	if d.counts[name] < ev.AfterCheckpoints {
		return
	}
	d.inFlight = true
	basePuts := d.totalPuts
	eventIdx := d.next
	revive := d.resurrect
	if ev.Kind == KindCrashResurrect {
		if d.crashResurrect == nil {
			d.errs = append(d.errs, fmt.Errorf("workload: crashresurrect event %d: this runner has no resurrect-with-rekill control", d.next))
			d.inFlight = false
			d.next++
			return
		}
		revive = d.crashResurrect
	}
	d.fail(ev.Node)
	go func() {
		d.waitDelay(ev, basePuts)
		err := revive(ev.Node, name)
		d.mu.Lock()
		d.fired++
		if err != nil {
			d.errs = append(d.errs, fmt.Errorf("workload: resurrecting node %d (event %d): %w", ev.Node, eventIdx, err))
		}
		d.next++
		d.inFlight = false
		// The next event's trigger may already be satisfied by
		// checkpoints written while this one was resurrecting.
		d.maybeFireLocked()
		d.mu.Unlock()
	}()
}

// maybeFirePartitionLocked fires an armed partition event once enough
// total store writes have landed; the heal fires HealWrites writes later
// (or at the stall fallback).
func (d *scriptDriver) maybeFirePartitionLocked(ev FaultEvent) {
	if d.totalPuts < ev.AfterCheckpoints {
		return
	}
	if d.partition == nil || d.heal == nil {
		d.errs = append(d.errs, fmt.Errorf("workload: partition event %d: this runner has no partition control", d.next))
		d.next++
		return
	}
	d.inFlight = true
	healAt := d.totalPuts + ev.HealWrites
	stall := d.stall
	d.partition(ev.SetA, ev.SetB)
	// Not counted in fired: a partition heals, it does not restore a
	// checkpoint, and fired is the run's resurrection count.
	go func() {
		d.waitPuts(healAt, time.Now().Add(stall))
		d.heal()
		d.mu.Lock()
		d.next++
		d.inFlight = false
		d.maybeFireLocked()
		d.mu.Unlock()
	}()
}

// maybeFireStoreKillLocked fires an armed storekill event once enough
// total store writes have landed. The replica dies mid-commit from the
// committer's point of view: the next Put fans out to one fewer
// replica and must still reach the write quorum.
func (d *scriptDriver) maybeFireStoreKillLocked(ev FaultEvent) {
	if d.totalPuts < ev.AfterCheckpoints {
		return
	}
	if d.killReplica == nil {
		// No replicated layer to kill into; finish will report the
		// unfired event. Advance so later events are not wedged behind
		// a permanently unsatisfiable one.
		d.errs = append(d.errs, fmt.Errorf("workload: storekill event %d: store has no replicated layer (need -store repl:N,...)", d.next))
		d.next++
		return
	}
	if err := d.killReplica(int(ev.Node)); err != nil {
		d.errs = append(d.errs, fmt.Errorf("workload: storekill event %d: killing replica %d: %w", d.next, ev.Node, err))
		d.next++
		return
	}
	d.fired++
	if ev.NoRevive {
		d.next++
		return
	}
	d.inFlight = true
	go func() {
		time.Sleep(ev.Delay)
		err := d.reviveReplica(int(ev.Node))
		d.mu.Lock()
		if err != nil {
			d.errs = append(d.errs, fmt.Errorf("workload: storekill event %d: reviving replica %d: %w", d.next, ev.Node, err))
		}
		d.next++
		d.inFlight = false
		d.maybeFireLocked()
		d.mu.Unlock()
	}()
}

// idle reports whether every scripted event has fully completed (fired
// and finished resurrecting).
func (d *scriptDriver) idle() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next >= len(d.events) && !d.inFlight
}

// inFlightNow reports whether an event has fired but its resurrection has
// not completed yet.
func (d *scriptDriver) inFlightNow() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inFlight
}

// waitNotInFlight blocks until the pending resurrection completes or the
// deadline passes. Runners call it when the cluster goes quiet while an
// event is mid-flight: a kill that landed at (or after) the end of the
// run — likelier with asynchronous checkpoint commits, whose triggers
// trail capture — revives its node only after the resurrection delay.
func (d *scriptDriver) waitNotInFlight(deadline time.Time) {
	for d.inFlightNow() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// finish reports the script's outcome once the run is over: an error if
// any resurrection failed or any event never triggered.
func (d *scriptDriver) finish() (fired int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.errs) > 0 {
		return d.fired, d.errs[0]
	}
	if d.next < len(d.events) || d.inFlight {
		ev := d.events[d.next]
		var what string
		switch ev.Kind {
		case KindStoreKill:
			what = fmt.Sprintf("store replica %d after %d puts", ev.Node, ev.AfterCheckpoints)
		case KindPartition:
			what = fmt.Sprintf("partition %s|%s after %d puts", joinNodes(ev.SetA), joinNodes(ev.SetB), ev.AfterCheckpoints)
		default:
			what = fmt.Sprintf("node %d after %d checkpoints", ev.Node, ev.AfterCheckpoints)
		}
		return d.fired, fmt.Errorf("workload: fault event %d never completed (%s; run too short for the script?)",
			d.next, what)
	}
	return d.fired, nil
}
