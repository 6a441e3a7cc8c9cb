package migrate

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/rt"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The tables under test are per process, so every test here ships a
// program no other test does: countdownProgram plus one function named
// after the salt.

func saltedProgram(salt string) *fir.Program {
	p := countdownProgram("checkpoint://" + salt)
	p.AddFunc(fir.Fn("salt_"+salt, fir.Ps("a", fir.TyInt), fir.NewBuilder().Halt(fir.V("a"))))
	return p
}

// saltedCheckpoint runs saltedProgram(salt) to completion from 10,
// checkpointing to checkpoint://<salt>, and returns the last checkpoint's
// encoding. A process resumed from it halts with 55.
func saltedCheckpoint(t *testing.T, salt string) []byte {
	t.Helper()
	store := newMemStore()
	proc := vm.NewProcess(saltedProgram(salt), nil, rt.Config{Fuel: 100000, Args: []int64{10}})
	targetExtern(proc, "checkpoint://"+salt)
	proc.SetMigrateHandler((&Migrator{Store: store}).Handle)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := store.Get(salt)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// unpackBytes decodes a fresh image, as every restore does, and unpacks it.
func unpackBytes(t *testing.T, data []byte, opts Options) (rt.Proc, Timings, error) {
	t.Helper()
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	return Unpack(img, opts)
}

func untrusted(salt string) Options {
	return Options{Externs: migExterns("checkpoint://" + salt), Config: rt.Config{Fuel: 100000}}
}

// runToHalt finishes a resumed countdown; its later checkpoints go to a
// throw-away store.
func runToHalt(t *testing.T, p rt.Proc) int64 {
	t.Helper()
	p.SetMigrateHandler((&Migrator{Store: newMemStore()}).Handle)
	st, err := p.Run()
	if err != nil || st != rt.StatusHalted {
		t.Fatalf("resumed run: status=%s err=%v", st, err)
	}
	return p.HaltCode()
}

func TestUnpackTwiceSharesProgramAndHits(t *testing.T) {
	data := saltedCheckpoint(t, "twice")
	eng0, ver0 := engine.CacheStats(), verdicts.Stats()

	p1, tm1, err := unpackBytes(t, data, untrusted("twice"))
	if err != nil {
		t.Fatal(err)
	}
	if tm1.Cached {
		t.Fatal("first contact with a program reported Cached")
	}
	eng1, ver1 := engine.CacheStats(), verdicts.Stats()
	if d := eng1["vm_misses"] - eng0["vm_misses"]; d != 1 {
		t.Fatalf("first unpack: %d vm artifact misses, want 1", d)
	}
	if d := ver1.Misses - ver0.Misses; d != 1 {
		t.Fatalf("first unpack: %d verdict misses, want 1", d)
	}

	p2, tm2, err := unpackBytes(t, data, untrusted("twice"))
	if err != nil {
		t.Fatal(err)
	}
	if !tm2.Cached {
		t.Fatal("second unpack of the same bytes not reported Cached")
	}
	if p1.Program() != p2.Program() {
		t.Fatal("two unpacks of the same bytes hold different *fir.Program values")
	}
	eng2, ver2 := engine.CacheStats(), verdicts.Stats()
	// An unpack asks the artifact cache twice: the timed Precompile, then
	// Resume.
	if miss, hit := eng2["vm_misses"]-eng1["vm_misses"], eng2["vm_hits"]-eng1["vm_hits"]; miss != 0 || hit != 2 {
		t.Fatalf("second unpack: vm artifact cache %d misses %d hits, want 0 and 2", miss, hit)
	}
	if miss, hit := ver2.Misses-ver1.Misses, ver2.Hits-ver1.Hits; miss != 0 || hit != 1 {
		t.Fatalf("second unpack: verdict table %d misses %d hits, want 0 and 1", miss, hit)
	}

	// Both processes are whole and independent: each finishes the sum.
	if a, b := runToHalt(t, p1), runToHalt(t, p2); a != 55 || b != 55 {
		t.Fatalf("resumed halt codes %d and %d, want 55", a, b)
	}
}

func TestUnpackHitOnEveryEngine(t *testing.T) {
	data := saltedCheckpoint(t, "engines")
	for _, name := range engine.Names() {
		opts := untrusted("engines")
		opts.Engine = name
		before := engine.CacheStats()
		for i := 0; i < 2; i++ {
			p, _, err := unpackBytes(t, data, opts)
			if err != nil {
				t.Fatalf("%s unpack %d: %v", name, i, err)
			}
			if got := runToHalt(t, p); got != 55 {
				t.Fatalf("%s unpack %d: halt %d, want 55", name, i, got)
			}
		}
		after := engine.CacheStats()
		if miss, hit := after[name+"_misses"]-before[name+"_misses"], after[name+"_hits"]-before[name+"_hits"]; miss != 1 || hit != 3 {
			t.Errorf("%s: two unpacks made %d artifact misses and %d hits, want 1 and 3", name, miss, hit)
		}
	}
}

func TestChangedProgramBytesNeverGetCachedProgram(t *testing.T) {
	data := saltedCheckpoint(t, "flip")
	cached, _, err := unpackBytes(t, data, untrusted("flip"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	orig := img.Code.Program
	for _, at := range []int{0, 5, len(orig) / 3, len(orig) / 2, len(orig) - 5, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[at] ^= 0x40
		img.Code.Program = mut
		p, tm, err := Unpack(img, untrusted("flip"))
		if err != nil {
			continue // the encoding's checksum caught it
		}
		if tm.Cached || p.Program() == cached.Program() {
			t.Fatalf("byte %d flipped: unpack served the cached program", at)
		}
	}

	// A different program that is well-formed and well-typed gets its own
	// entry.
	other := saltedProgram("flip")
	other.AddFunc(fir.Fn("extra", fir.Ps("a", fir.TyInt), fir.NewBuilder().Halt(fir.I(7))))
	img.Code.Program = fir.EncodeProgram(other)
	p, tm, err := Unpack(img, untrusted("flip"))
	if err != nil {
		t.Fatal(err)
	}
	if tm.Cached || p.Program() == cached.Program() {
		t.Fatal("a different program was served the cached one")
	}
	if _, idx := p.Program().Lookup("extra"); idx < 0 {
		t.Fatal("unpacked program is not the one in the image")
	}
}

func TestFailedDecodeIsNotKept(t *testing.T) {
	data := saltedCheckpoint(t, "baddecode")
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	img.Code.Program = append([]byte(nil), img.Code.Program...)
	img.Code.Program[len(img.Code.Program)/2] ^= 1
	before := interned.Stats()
	for i := 0; i < 2; i++ {
		if _, _, err := Unpack(img, untrusted("baddecode")); err == nil {
			t.Fatalf("unpack %d accepted a corrupt program", i)
		}
	}
	after := interned.Stats()
	if after.Misses-before.Misses != 2 || after.Entries != before.Entries {
		t.Fatalf("corrupt program: %d decodes for 2 unpacks, entries %d -> %d; want 2 decodes and nothing kept",
			after.Misses-before.Misses, before.Entries, after.Entries)
	}
}

func TestIllTypedProgramRejectedEveryTime(t *testing.T) {
	data := saltedCheckpoint(t, "illtyped")
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	// Adds an int to a pointer: decodes, does not type-check.
	bad := saltedProgram("illtyped")
	b := fir.NewBuilder()
	b.Let("x", fir.TyInt, fir.OpAdd, fir.V("p"), fir.I(1))
	bad.AddFunc(fir.Fn("bad", fir.Ps("p", fir.TyPtr), b.Halt(fir.V("x"))))
	img.Code.Program = fir.EncodeProgram(bad)
	for i := 0; i < 3; i++ {
		_, tm, err := Unpack(img, untrusted("illtyped"))
		if err == nil || !strings.Contains(err.Error(), "inbound program rejected") {
			t.Fatalf("unpack %d of an ill-typed program: err = %v, want rejection", i, err)
		}
		if want := i > 0; tm.Cached != want {
			t.Fatalf("unpack %d: Cached = %v, want %v (the decode is kept, the rejection is not)", i, tm.Cached, want)
		}
	}
}

func TestDifferentExternSignaturesRecheck(t *testing.T) {
	data := saltedCheckpoint(t, "sigs")
	if _, _, err := unpackBytes(t, data, untrusted("sigs")); err != nil {
		t.Fatal(err)
	}
	// The same externs plus one more: a new signature set, one new check.
	wider := untrusted("sigs")
	wider.Externs["unused"] = rt.Extern{Sig: fir.ExternSig{Result: fir.TyInt}}
	before := verdicts.Stats()
	if _, tm, err := unpackBytes(t, data, wider); err != nil || !tm.Cached {
		t.Fatalf("unpack under a wider extern set: Cached=%v err=%v", tm.Cached, err)
	}
	if after := verdicts.Stats(); after.Misses-before.Misses != 1 {
		t.Fatalf("a new extern signature set made %d checks, want 1", after.Misses-before.Misses)
	}
	// Without mig_target the program does not type-check, whatever was
	// accepted for it under other externs.
	_, tm, err := unpackBytes(t, data, Options{Config: rt.Config{Fuel: 1000}})
	if err == nil || !strings.Contains(err.Error(), "mig_target") {
		t.Fatalf("unpack without the program's extern: err = %v, want rejection naming mig_target", err)
	}
	if !tm.Cached {
		t.Fatal("the rejected unpack should still have found the decoded program")
	}
	// mig_target under another signature is another set too.
	wrong := untrusted("sigs")
	wrong.Externs["mig_target"] = rt.Extern{Sig: fir.ExternSig{Result: fir.TyInt}}
	if _, _, err := unpackBytes(t, data, wrong); err == nil {
		t.Fatal("unpack accepted mig_target at the wrong type")
	}
}

func TestResumeLabelCheckedOnHit(t *testing.T) {
	data := saltedCheckpoint(t, "label")
	if _, _, err := unpackBytes(t, data, untrusted("label")); err != nil {
		t.Fatal(err)
	}
	img, err := wire.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	img.Code.Label = 999
	_, tm, err := Unpack(img, untrusted("label"))
	if err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("cached program, bogus resume label: err = %v, want rejection", err)
	}
	if !tm.Cached {
		t.Fatal("the second unpack was meant to be a hit")
	}
	// migrate_env is image state as well: a hit does not skip its checks.
	img, _ = wire.DecodeImage(data)
	img.Code.EnvIndex = 1 << 30
	if _, _, err := Unpack(img, untrusted("label")); err == nil {
		t.Fatal("cached program, migrate_env index out of the table: unpack accepted it")
	}
}

func TestInternTableStaysBounded(t *testing.T) {
	const bound = 16 // interned's
	first := saltedCheckpoint(t, "bound0")
	p0, _, err := unpackBytes(t, first, untrusted("bound0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= bound+4; i++ {
		salt := fmt.Sprintf("bound%d", i)
		if _, _, err := unpackBytes(t, saltedCheckpoint(t, salt), untrusted(salt)); err != nil {
			t.Fatal(err)
		}
		if n := interned.Stats().Entries; n > bound {
			t.Fatalf("after %d programs the intern table holds %d, bound %d", i+1, n, bound)
		}
	}
	// The first program was evicted on the way: it decodes again, into a
	// new value, and the old process keeps its own.
	p1, tm, err := unpackBytes(t, first, untrusted("bound0"))
	if err != nil {
		t.Fatal(err)
	}
	if tm.Cached || p1.Program() == p0.Program() {
		t.Fatal("a program pushed out of the table was still served from it")
	}
	if got := runToHalt(t, p0); got != 55 {
		t.Fatalf("process of the evicted program halted %d, want 55", got)
	}
}

func TestConcurrentUnpacksOfOneImage(t *testing.T) {
	data := saltedCheckpoint(t, "concurrent")
	const n = 8
	var (
		wg    sync.WaitGroup
		procs [n]rt.Proc
		errs  [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img, err := wire.DecodeImage(data)
			if err != nil {
				errs[i] = err
				return
			}
			opts := untrusted("concurrent")
			opts.Engine = engine.Names()[i%len(engine.Names())]
			p, _, err := Unpack(img, opts)
			if err != nil {
				errs[i] = err
				return
			}
			p.SetMigrateHandler((&Migrator{Store: newMemStore()}).Handle)
			if st, err := p.Run(); err != nil || st != rt.StatusHalted || p.HaltCode() != 55 {
				errs[i] = fmt.Errorf("status=%s halt=%d err=%v", st, p.HaltCode(), err)
			}
			procs[i] = p
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("unpack %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if procs[i].Program() != procs[0].Program() {
			t.Fatalf("concurrent unpacks 0 and %d hold different programs", i)
		}
	}
}

// lastMissRuns counts invocations of TestServerKeepsLastMiss: the intern
// table outlives a test, so a repeated run (-count 2) ships a new salt.
var lastMissRuns int

func TestServerKeepsLastMiss(t *testing.T) {
	srv, addr := runServer(t, ServerConfig{Externs: migExterns("unused://x")})
	salt := fmt.Sprintf("server%d", lastMissRuns)
	lastMissRuns++
	ship := func() {
		t.Helper()
		prog := saltedProgram(salt)
		proc := vm.NewProcess(prog, nil, rt.Config{Fuel: 100000, Args: []int64{4}})
		targetExtern(proc, "migrate://"+addr)
		proc.SetMigrateHandler((&Migrator{}).Handle)
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		if st, err := proc.Run(); err != nil || st != rt.StatusMigrated {
			t.Fatalf("source: status=%s err=%v", st, err)
		}
	}
	ship()
	st := srv.Stats()
	if st.LastUnpack.Cached || st.LastMiss != st.LastUnpack || st.LastMiss.Check == 0 {
		t.Fatalf("after first contact: LastUnpack %+v LastMiss %+v", st.LastUnpack, st.LastMiss)
	}
	cold := st.LastMiss
	ship()
	st = srv.Stats()
	if !st.LastUnpack.Cached {
		t.Fatalf("second arrival of the same code not Cached: %+v", st.LastUnpack)
	}
	if st.LastMiss != cold {
		t.Fatalf("a cached unpack overwrote LastMiss: %+v, was %+v", st.LastMiss, cold)
	}
}
