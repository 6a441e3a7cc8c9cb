package migrate

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
	"repro/internal/vm"
	"repro/internal/wire"
)

// memStore is an in-memory checkpoint store for tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[name] = cp
	return nil
}

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("memStore: %q not found", name)
	}
	return d, nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.m {
		out = append(out, k)
	}
	return out, nil
}

// countdownProgram builds a program that counts down from `start` in a heap
// cell, checkpointing (or migrating) every `every` iterations to `target`,
// and halts with the final accumulated sum. Resuming from any checkpoint
// must produce the same final answer.
func countdownProgram(target string) *fir.Program {
	// main: p = alloc 2; p[0]=start from getarg(0); p[1]=0 (sum); loop(p)
	mb := fir.NewBuilder()
	mb.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(2))
	mb.Extern("start", fir.TyInt, "getarg", fir.I(0))
	mb.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.V("start"))
	main := fir.Fn("main", nil, mb.CallNamed("loop", fir.V("p")))

	// loop(p): n = p[0]; if n == 0 halt p[1];
	//   sum += n; n--; store; if n % 3 == 0 -> migrate [1, tgt] loop(p) else loop(p)
	lb := fir.NewBuilder()
	lb.Let("n", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
	lb.Let("done", fir.TyInt, fir.OpEq, fir.V("n"), fir.I(0))
	haltB := fir.NewBuilder()
	haltB.Let("sum", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(1))
	cont := fir.NewBuilder()
	cont.Let("sum0", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(1))
	cont.Let("sum1", fir.TyInt, fir.OpAdd, fir.V("sum0"), fir.V("n"))
	cont.Let("u1", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(1), fir.V("sum1"))
	cont.Let("n1", fir.TyInt, fir.OpSub, fir.V("n"), fir.I(1))
	cont.Let("u2", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.V("n1"))
	cont.Let("m", fir.TyInt, fir.OpMod, fir.V("n1"), fir.I(3))
	cont.Let("ck", fir.TyInt, fir.OpEq, fir.V("m"), fir.I(0))
	migB := fir.NewBuilder()
	migB.Extern("tgt", fir.TyPtr, "mig_target")
	loop := fir.Fn("loop", fir.Ps("p", fir.TyPtr),
		lb.If(fir.V("done"),
			haltB.Halt(fir.V("sum")),
			cont.If(fir.V("ck"),
				migB.Migrate(1, fir.V("tgt"), fir.I(0), "loop", fir.V("p")),
				fir.NewBuilder().CallNamed("loop", fir.V("p")))))

	p := fir.NewProgram("main", main, loop)
	_ = target
	return p
}

// targetExtern registers mig_target returning the given string.
func targetExtern(p rt.Proc, target string) {
	p.RegisterExtern("mig_target", fir.ExternSig{Result: fir.TyPtr},
		func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
			return r.Heap().AllocString(target)
		})
}

func migExterns(target string) rt.Registry {
	return rt.Registry{
		"mig_target": {
			Sig: fir.ExternSig{Result: fir.TyPtr},
			Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
				return r.Heap().AllocString(target)
			},
		},
	}
}

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in    string
		proto Proto
		addr  string
		ok    bool
	}{
		{"migrate://host:9", ProtoMigrate, "host:9", true},
		{"migrate-bin://h:1", ProtoMigrateBinary, "h:1", true},
		{"checkpoint://ck-1", ProtoCheckpoint, "ck-1", true},
		{"suspend://name", ProtoSuspend, "name", true},
		{"bogus://x", 0, "", false},
		{"noscheme", 0, "", false},
		{"checkpoint://", 0, "", false},
	}
	for _, tc := range cases {
		proto, addr, err := ParseTarget(tc.in)
		if tc.ok && (err != nil || proto != tc.proto || addr != tc.addr) {
			t.Errorf("ParseTarget(%q) = %v,%q,%v", tc.in, proto, addr, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseTarget(%q) accepted", tc.in)
		}
	}
}

func TestCheckpointAndResume(t *testing.T) {
	const start = 10
	store := newMemStore()
	prog := countdownProgram("checkpoint://ck")

	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{start}})
	targetExtern(proc, "checkpoint://ck")
	m := &Migrator{Store: store}
	proc.SetMigrateHandler(m.Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(start * (start + 1) / 2)
	if st != rt.StatusHalted || proc.HaltCode() != want {
		t.Fatalf("original run: status=%s code=%d, want halted %d", st, proc.HaltCode(), want)
	}

	// The stored checkpoint must resume and reach the same final answer.
	resumed, err := LoadCheckpoint(store, "ck", Options{
		Externs: migExterns("checkpoint://ck"),
		Config:  rt.Config{Fuel: 100000},
	})
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	// The resumed process itself checkpoints again; same store handles it.
	resumed.SetMigrateHandler((&Migrator{Store: store}).Handle)
	st, err = resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || resumed.HaltCode() != want {
		t.Fatalf("resumed run: status=%s code=%d, want halted %d", st, resumed.HaltCode(), want)
	}
}

func TestSuspendTerminatesAndResumes(t *testing.T) {
	store := newMemStore()
	prog := countdownProgram("suspend://s1")
	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{5}})
	targetExtern(proc, "suspend://s1")
	proc.SetMigrateHandler((&Migrator{Store: store}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusSuspended {
		t.Fatalf("status = %s, want suspended", st)
	}
	resumed, err := LoadCheckpoint(store, "s1", Options{
		Externs: migExterns("checkpoint://ignored"),
		Config:  rt.Config{Fuel: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetMigrateHandler((&Migrator{Store: newMemStore()}).Handle)
	st, err = resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || resumed.HaltCode() != 15 {
		t.Fatalf("resumed: status=%s code=%d, want halted 15", st, resumed.HaltCode())
	}
}

// runServer starts a migration server on a fresh TCP port.
func runServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, cfg)
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s, l.Addr().String()
}

// newProc builds a fresh process on the named engine.
func newProc(t *testing.T, engineName string, prog *fir.Program, cfg rt.Config) rt.Proc {
	t.Helper()
	eng, err := engine.Get(engineName)
	if err != nil {
		t.Fatal(err)
	}
	return eng.New(prog, cfg)
}

// The server migrations start a countdown on one engine and migrate it,
// mid-run, to a server resuming on the other (the one in the test's name);
// it keeps migrating to that server until it halts there with the full
// sum.
func TestServerMigrationUntrustedVM(t *testing.T)  { testServerMigration(t, "jit", "vm", false) }
func TestServerMigrationUntrustedJIT(t *testing.T) { testServerMigration(t, "vm", "jit", false) }
func TestServerMigrationBinaryVM(t *testing.T)     { testServerMigration(t, "jit", "vm", true) }
func TestServerMigrationBinaryJIT(t *testing.T)    { testServerMigration(t, "vm", "jit", true) }

func testServerMigration(t *testing.T, src, dst string, binary bool) {
	scheme := "migrate"
	if binary {
		scheme = "migrate-bin"
	}

	var out bytes.Buffer
	done := make(chan rt.Proc, 8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := scheme + "://" + l.Addr().String()
	srv := NewServer(l, ServerConfig{
		Engine:      dst,
		Externs:     migExterns(target),
		AllowBinary: true,
		Migrator:    &Migrator{},
		Config:      rt.Config{Stdout: &out, Fuel: 100000},
		OnResume: func(p rt.Proc) {
			go func() {
				_, _ = p.Run()
				done <- p
			}()
		},
	})
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })

	prog := countdownProgram(target)
	proc := newProc(t, src, prog, rt.Config{Fuel: 100000, Args: []int64{7}})
	targetExtern(proc, target)
	proc.SetMigrateHandler((&Migrator{}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, runErr := proc.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if st != rt.StatusMigrated {
		t.Fatalf("source status = %s, want migrated", st)
	}

	// The process hops between source and server; each subsequent migrate
	// from the server targets the same server, so it lands back there.
	var final rt.Proc
	deadline := time.After(10 * time.Second)
	for final == nil {
		select {
		case p := <-done:
			if p.Status() == rt.StatusHalted {
				final = p
			}
		case <-deadline:
			t.Fatal("no process halted on the server within 10s")
		}
	}
	if final.HaltCode() != 28 { // 7*8/2
		t.Fatalf("final halt code = %d, want 28", final.HaltCode())
	}
	if srv.Stats().Accepted == 0 {
		t.Fatal("server accepted no migrations")
	}
}

func TestServerRejectsBinaryWhenNotAllowed(t *testing.T) {
	_, addr := runServer(t, ServerConfig{AllowBinary: false})
	prog := countdownProgram("x")
	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{3}})
	target := "migrate-bin://" + addr
	targetExtern(proc, target)
	proc.SetMigrateHandler((&Migrator{}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	// Migration fails -> process continues locally and halts normally.
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || proc.HaltCode() != 6 {
		t.Fatalf("status=%s code=%d, want halted 6 (local continuation)", st, proc.HaltCode())
	}
}

func TestUnpackRejectsUnknownExtern(t *testing.T) {
	// Pack a process whose program uses an extern the receiving side does
	// not provide: the untrusted unpack must reject it.
	prog := countdownProgram("checkpoint://x")
	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{4}})
	targetExtern(proc, "checkpoint://x")
	store := newMemStore()
	proc.SetMigrateHandler((&Migrator{Store: store}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(store, "x", Options{Config: rt.Config{Fuel: 1000}})
	if err == nil || !strings.Contains(err.Error(), "mig_target") {
		t.Fatalf("unpack accepted program with unknown extern: %v", err)
	}
	// Trusted unpack skips the check and would resume (until the extern is
	// actually called).
	if _, err := LoadCheckpoint(store, "x", Options{Trusted: true, Config: rt.Config{Fuel: 1000}}); err != nil {
		t.Fatalf("trusted unpack failed: %v", err)
	}
}

func TestUnpackValidatesLabel(t *testing.T) {
	prog := countdownProgram("checkpoint://x")
	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{4}})
	targetExtern(proc, "checkpoint://x")
	store := newMemStore()
	proc.SetMigrateHandler((&Migrator{Store: store}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := store.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	img.Code.Label = 999
	_, _, err = Unpack(img, Options{Externs: migExterns("checkpoint://x"), Config: rt.Config{Fuel: 1000}})
	if err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("unpack accepted bogus resume label: %v", err)
	}
}

// TestPackResumesWithOpenSpeculation: a process suspends on one engine
// while a speculation is open; resumed on the other engine it must still be
// able to roll that speculation back. This fails if either engine's StartAt
// or the restore of the continuation stack drifts from the other's.
func TestPackResumesWithOpenSpeculation(t *testing.T) {
	for _, dir := range [][2]string{{"vm", "jit"}, {"jit", "vm"}} {
		for _, trusted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-to-%s/trusted=%v", dir[0], dir[1], trusted), func(t *testing.T) {
				testPackResumesWithOpenSpeculation(t, dir[0], dir[1], trusted)
			})
		}
	}
}

func testPackResumesWithOpenSpeculation(t *testing.T, src, dst string, trusted bool) {
	mb := fir.NewBuilder()
	mb.Let("p", fir.TyPtr, fir.OpAlloc, fir.I(1))
	mb.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.I(100))
	main := fir.Fn("main", nil, mb.Speculate("body", fir.V("p")))

	bb := fir.NewBuilder()
	bb.Let("first", fir.TyInt, fir.OpEq, fir.V("c"), fir.I(0))
	body := fir.Fn("body", fir.Ps("c", fir.TyInt, "p", fir.TyPtr),
		bb.If(fir.V("first"),
			func() fir.Expr {
				b := fir.NewBuilder()
				b.Let("u", fir.TyUnit, fir.OpStore, fir.V("p"), fir.I(0), fir.I(999))
				b.Extern("tgt", fir.TyPtr, "mig_target")
				return b.Migrate(1, fir.V("tgt"), fir.I(0), "afterCk", fir.V("p"))
			}(),
			func() fir.Expr {
				// Re-entered after the post-resume rollback: p[0] must be
				// restored to 100.
				b := fir.NewBuilder()
				b.Let("v", fir.TyInt, fir.OpLoad, fir.V("p"), fir.I(0))
				return b.Commit(fir.I(1), "final", fir.V("v"))
			}()))

	afterCk := fir.Fn("afterCk", fir.Ps("p", fir.TyPtr),
		fir.NewBuilder().Rollback(fir.I(1), fir.I(1)))
	final := fir.Fn("final", fir.Ps("v", fir.TyInt), fir.NewBuilder().Halt(fir.V("v")))
	prog := fir.NewProgram("main", main, body, afterCk, final)

	store := newMemStore()
	proc := newProc(t, src, prog, rt.Config{Fuel: 100000})
	targetExtern(proc, "suspend://spec-open")
	proc.SetMigrateHandler((&Migrator{Store: store}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := proc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusSuspended {
		t.Fatalf("status = %s, want suspended", st)
	}

	if proc.Spec().Depth() != 1 {
		t.Fatalf("suspended with speculation depth %d, want 1", proc.Spec().Depth())
	}

	resumed, err := LoadCheckpoint(store, "spec-open", Options{
		Engine:  dst,
		Trusted: trusted,
		Externs: migExterns("suspend://unused"),
		Config:  rt.Config{Fuel: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Spec().Depth() != 1 {
		t.Fatalf("resumed speculation depth = %d, want 1", resumed.Spec().Depth())
	}
	st, err = resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || resumed.HaltCode() != 100 {
		t.Fatalf("resumed: status=%s code=%d, want halted 100 (rolled-back value)", st, resumed.HaltCode())
	}
}

func TestMigratorTimingsRecorded(t *testing.T) {
	store := newMemStore()
	prog := countdownProgram("checkpoint://tm")
	proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{4}})
	targetExtern(proc, "checkpoint://tm")
	m := &Migrator{Store: store}
	proc.SetMigrateHandler(m.Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	tm := m.LastTimings()
	if tm.Bytes == 0 {
		t.Fatal("no bytes recorded for checkpoint")
	}
	if tm.Pack <= 0 {
		t.Fatal("no pack time recorded")
	}
}

func TestLoadCheckpointMissing(t *testing.T) {
	if _, err := LoadCheckpoint(newMemStore(), "ghost", Options{}); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
}
