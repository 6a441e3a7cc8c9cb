package fir

import (
	"fmt"
	"strings"
	"testing"
)

func TestOptimizeFoldsConstants(t *testing.T) {
	b := NewBuilder()
	b.Let("a", TyInt, OpAdd, I(2), I(3))
	b.Let("c", TyInt, OpMul, V("a"), I(4))
	p := NewProgram("main", Fn("main", nil, b.Halt(V("c"))))
	st := Optimize(p)
	if st.Folded < 2 {
		t.Fatalf("Folded = %d, want >= 2", st.Folded)
	}
	out := Format(p)
	if !strings.Contains(out, "halt 20") {
		t.Fatalf("folding did not reach the halt:\n%s", out)
	}
	if err := Check(p, nil); err != nil {
		t.Fatalf("optimized program fails Check: %v", err)
	}
}

func TestOptimizeCopyPropagationAndDeadLets(t *testing.T) {
	b := NewBuilder()
	b.Let("x", TyInt, OpMove, I(7))
	b.Let("unused", TyInt, OpAdd, V("x"), I(1))
	p := NewProgram("main", Fn("main", nil, b.Halt(V("x"))))
	st := Optimize(p)
	if st.CopiesProp == 0 {
		t.Fatal("no copies propagated")
	}
	out := Format(p)
	if !strings.Contains(out, "halt 7") {
		t.Fatalf("move not propagated:\n%s", out)
	}
	if strings.Contains(out, "unused") {
		t.Fatalf("dead binding survived:\n%s", out)
	}
}

func TestOptimizeFoldsBranches(t *testing.T) {
	b := NewBuilder()
	b.Let("c", TyInt, OpLt, I(1), I(2))
	body := b.If(V("c"), Halt{Code: I(10)}, Halt{Code: I(20)})
	p := NewProgram("main", Fn("main", nil, body))
	st := Optimize(p)
	if st.IfsFolded != 1 {
		t.Fatalf("IfsFolded = %d", st.IfsFolded)
	}
	if !strings.Contains(Format(p), "halt 10") || strings.Contains(Format(p), "halt 20") {
		t.Fatalf("branch not folded:\n%s", Format(p))
	}
}

func TestOptimizePreservesTraps(t *testing.T) {
	// Division by a zero literal must NOT fold — the trap is observable.
	b := NewBuilder()
	b.Let("d", TyInt, OpDiv, I(1), I(0))
	p := NewProgram("main", Fn("main", nil, b.Halt(I(0))))
	Optimize(p)
	out := Format(p)
	if !strings.Contains(out, "div") {
		t.Fatalf("div-by-zero was folded or dropped:\n%s", out)
	}
	// Loads are never dropped even when unused (they can trap).
	b2 := NewBuilder()
	b2.Let("p", TyPtr, OpAlloc, I(1))
	b2.Let("x", TyInt, OpLoad, V("p"), I(5))
	p2 := NewProgram("main", Fn("main", nil, b2.Halt(I(0))))
	Optimize(p2)
	if !strings.Contains(Format(p2), "load") {
		t.Fatalf("trapping load dropped:\n%s", Format(p2))
	}
}

func TestOptimizeBranchEnvIsolation(t *testing.T) {
	// A copy propagated inside one branch must not leak into the other.
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(2))
	b.Let("c", TyInt, OpLoad, V("p"), I(0)) // opaque condition
	thenB := NewBuilder()
	thenB.Let("t", TyInt, OpMove, I(1))
	then := thenB.Halt(V("t"))
	elseB := NewBuilder()
	elseB.Let("t", TyInt, OpMove, I(2))
	els := elseB.Halt(V("t"))
	p := NewProgram("main", Fn("main", nil, b.If(V("c"), then, els)))
	Optimize(p)
	out := Format(p)
	if !strings.Contains(out, "halt 1") || !strings.Contains(out, "halt 2") {
		t.Fatalf("branch environments leaked:\n%s", out)
	}
	if err := Check(p, nil); err != nil {
		t.Fatalf("Check after optimize: %v", err)
	}
}

// optimized runs Optimize over p, requires the result to pass Check and
// returns the stats and the printed program.
func optimized(t *testing.T, p *Program) (OptStats, string) {
	t.Helper()
	st := Optimize(p)
	if err := Check(p, nil); err != nil {
		t.Fatalf("optimized program fails Check: %v\n%s", err, Format(p))
	}
	return st, Format(p)
}

func TestCSEMergesPureOpsButNotLoads(t *testing.T) {
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(2))
	b.Let("x", TyInt, OpLoad, V("p"), I(1))
	b.Let("a", TyInt, OpAdd, V("x"), I(1))
	b.Let("a2", TyInt, OpAdd, I(1), V("x")) // the same sum, operands swapped
	b.Let("l1", TyInt, OpLoad, V("p"), I(0))
	b.Let("u", TyUnit, OpStore, V("p"), I(0), V("a"))
	b.Let("l2", TyInt, OpLoad, V("p"), I(0)) // reads what the store wrote
	b.Let("s1", TyInt, OpAdd, V("a"), V("a2"))
	b.Let("s2", TyInt, OpAdd, V("l1"), V("l2"))
	b.Let("r", TyInt, OpAdd, V("s1"), V("s2"))
	st, out := optimized(t, NewProgram("main", Fn("main", nil, b.Halt(V("r")))))
	if st.CSE != 1 || strings.Contains(out, "a2") {
		t.Errorf("CSE = %d, want the swapped add merged:\n%s", st.CSE, out)
	}
	if n := strings.Count(out, "load(p, 0)"); n != 2 {
		t.Errorf("%d loads of p[0] left, want both (a store sits between them):\n%s", n, out)
	}
}

func TestCSEStaysInsideIfArms(t *testing.T) {
	arms := func(pre bool) string {
		b := NewBuilder()
		b.Let("p", TyPtr, OpAlloc, I(2))
		b.Let("x", TyInt, OpLoad, V("p"), I(0))
		b.Let("c", TyInt, OpLoad, V("p"), I(1))
		if pre {
			b.Let("d", TyInt, OpMul, V("x"), I(3))
			b.Let("u", TyUnit, OpStore, V("p"), I(0), V("d"))
		}
		tb := NewBuilder()
		tb.Let("a", TyInt, OpMul, V("x"), I(3))
		eb := NewBuilder()
		eb.Let("e", TyInt, OpMul, V("x"), I(3))
		eb.Let("e2", TyInt, OpAdd, V("e"), I(1))
		body := b.If(V("c"), tb.Halt(V("a")), eb.Halt(V("e2")))
		_, out := optimized(t, NewProgram("main", Fn("main", nil, body)))
		return out
	}
	// A product computed in one arm is not available in the other.
	if out := arms(false); strings.Count(out, "mul(") != 2 {
		t.Errorf("a binding leaked from one If arm into the other:\n%s", out)
	}
	// One computed before the If dominates both arms.
	if out := arms(true); strings.Count(out, "mul(") != 1 {
		t.Errorf("the dominating product was not reused in the arms:\n%s", out)
	}
}

// invariantLoop is main → loop(i, n, d, s): each iteration adds n*3, and
// from the fourth on also 100/d. Both n*3 and 100/d are loop-invariant;
// only the first cannot trap. Hoisting spends only bytes the other passes
// saved, so main carries dead bindings to pay for it.
func invariantLoop() *Program {
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(2))
	b.Let("n", TyInt, OpLoad, V("p"), I(0))
	b.Let("d", TyInt, OpLoad, V("p"), I(1))
	for _, dead := range []string{"unused_a", "unused_b", "unused_c", "unused_d"} {
		b.Let(dead, TyInt, OpAdd, V("n"), V("d"))
	}
	main := Fn("main", nil, b.CallNamed("loop", I(0), V("n"), V("d"), I(0)))

	guarded := NewBuilder()
	guarded.Let("q", TyInt, OpDiv, I(100), V("d"))
	guarded.Let("m", TyInt, OpMul, V("n"), I(3))
	guarded.Let("s1", TyInt, OpAdd, V("s"), V("q"))
	guarded.Let("s2", TyInt, OpAdd, V("s1"), V("m"))
	guarded.Let("i1", TyInt, OpAdd, V("i"), I(1))
	plain := NewBuilder()
	plain.Let("m2", TyInt, OpMul, V("n"), I(3))
	plain.Let("s3", TyInt, OpAdd, V("s"), V("m2"))
	plain.Let("i2", TyInt, OpAdd, V("i"), I(1))
	inner := NewBuilder()
	inner.Let("g", TyInt, OpGt, V("i"), I(2))
	step := inner.If(V("g"),
		guarded.CallNamed("loop", V("i1"), V("n"), V("d"), V("s2")),
		plain.CallNamed("loop", V("i2"), V("n"), V("d"), V("s3")))
	lb := NewBuilder()
	lb.Let("c", TyInt, OpLt, V("i"), V("n"))
	loop := Fn("loop", Ps("i", TyInt, "n", TyInt, "d", TyInt, "s", TyInt),
		lb.If(V("c"), step, Halt{Code: V("s")}))
	return NewProgram("main", main, loop)
}

func TestHoistingKeepsGuardedDivInPlace(t *testing.T) {
	p := invariantLoop()
	st, out := optimized(t, p)
	if st.Hoisted == 0 {
		t.Fatalf("n*3 was not hoisted:\n%s", out)
	}
	main, _ := p.Lookup("main")
	loop, _ := p.Lookup("loop")
	if s := Format(NewProgram("main", main)); !strings.Contains(s, "mul(") || strings.Contains(s, "div(") {
		t.Errorf("main should compute n*3 and nothing that can trap:\n%s", out)
	}
	if s := Format(NewProgram("loop", loop)); strings.Count(s, "div(") != 1 || strings.Contains(s, "mul(") {
		t.Errorf("the loop should keep its guarded div and lose its products:\n%s", out)
	}
}

func TestDeadParamsSkipSpeculateContinuation(t *testing.T) {
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(1))
	main := Fn("main", nil, b.Speculate("k", V("p"), I(7)))
	// k never reads unused, but the runtime enters it: its signature stays.
	k := Fn("k", Ps("c", TyInt, "p", TyPtr, "unused", TyInt),
		NewBuilder().CallNamed("h", V("p"), V("c"), I(9)))
	// h is only ever called directly, so junk goes.
	hb := NewBuilder()
	hb.Let("x", TyInt, OpLoad, V("p"), I(0))
	hb.Let("y", TyInt, OpAdd, V("x"), V("c"))
	h := Fn("h", Ps("p", TyPtr, "c", TyInt, "junk", TyInt), hb.Halt(V("y")))
	p := NewProgram("main", main, k, h)
	st, out := optimized(t, p)
	if st.DeadParams != 1 {
		t.Errorf("DeadParams = %d, want 1:\n%s", st.DeadParams, out)
	}
	if f, _ := p.Lookup("k"); f == nil || len(f.Params) != 3 {
		t.Errorf("the speculate continuation lost parameters:\n%s", out)
	}
	if f, _ := p.Lookup("h"); f == nil || len(f.Params) != 2 {
		t.Errorf("h kept its dead parameter:\n%s", out)
	}
}

// callers returns main calling the tiny function f once per site, each
// with an argument of its own; f does four pure operations and halts.
func callers(sites int) *Program {
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(int64(sites)))
	var calls []Expr
	for i := 0; i < sites; i++ {
		v := fmt.Sprintf("v%d", i)
		b.Let(v, TyInt, OpLoad, V("p"), I(int64(i)))
		calls = append(calls, Call{Fn: FunLit{Name: "f"}, Args: []Atom{V(v)}})
	}
	body := calls[len(calls)-1]
	for i := len(calls) - 2; i >= 0; i-- {
		c := fmt.Sprintf("c%d", i)
		body = Let{Dst: c, DstType: TyInt, Op: OpLt, Args: []Atom{V(fmt.Sprintf("v%d", i)), I(5)},
			Body: If{Cond: V(c), Then: calls[i], Else: body}}
	}
	main := Fn("main", nil, b.finish(body))
	fb := NewBuilder()
	fb.Let("x1", TyInt, OpAdd, V("a"), I(1))
	fb.Let("x2", TyInt, OpMul, V("x1"), I(3))
	fb.Let("x3", TyInt, OpSub, V("x2"), I(7))
	fb.Let("x4", TyInt, OpXor, V("x3"), I(5))
	f := Fn("f", Ps("a", TyInt), fb.Halt(V("x4")))
	return NewProgram("main", main, f)
}

func TestInliningNeverGrowsTheProgram(t *testing.T) {
	// One site: f's body replaces the call and f itself goes.
	p := callers(1)
	before := len(EncodeProgram(p))
	st, out := optimized(t, p)
	if st.Inlined != 1 || st.DeadFuncs != 1 || len(EncodeProgram(p)) > before {
		t.Errorf("single-site tiny function not inlined (%+v):\n%s", st, out)
	}
	// Three sites: three copies of f's body outweigh f.
	p = callers(3)
	before = len(EncodeProgram(p))
	st, out = optimized(t, p)
	if st.Inlined != 0 || len(p.Funcs) != 2 {
		t.Errorf("inlining grew the program (%+v):\n%s", st, out)
	}
	if after := len(EncodeProgram(p)); after > before {
		t.Errorf("program grew from %d to %d bytes", before, after)
	}
}

// joinLoop is main → loop(i, n, a, b, p, s) ⇄ join(i, n, a, b, p, s, e):
// the join takes one parameter more than the loop header, as lang's joins
// over the variables in scope do, and computes the invariant a*b on every
// iteration. join loads, so it is not inlined; main carries dead bindings
// to pay for the hoisting.
func joinLoop() *Program {
	b := NewBuilder()
	b.Let("p", TyPtr, OpAlloc, I(3))
	b.Let("a", TyInt, OpLoad, V("p"), I(0))
	b.Let("b", TyInt, OpLoad, V("p"), I(1))
	b.Let("n", TyInt, OpLoad, V("p"), I(2))
	for _, dead := range []string{"unused_a", "unused_b", "unused_c", "unused_d"} {
		b.Let(dead, TyInt, OpAdd, V("a"), V("n"))
	}
	main := Fn("main", nil, b.CallNamed("loop", I(0), V("n"), V("a"), V("b"), V("p"), I(0)))

	odd := NewBuilder()
	odd.Let("d", TyInt, OpAnd, V("i"), I(1))
	pass := func(e int64) Expr {
		return NewBuilder().CallNamed("join", V("i"), V("n"), V("a"), V("b"), V("p"), V("s"), I(e))
	}
	exit := NewBuilder() // reads a and b, so neither parameter is dead
	exit.Let("r1", TyInt, OpAdd, V("s"), V("a"))
	exit.Let("r2", TyInt, OpAdd, V("r1"), V("b"))
	lb := NewBuilder()
	lb.Let("c", TyInt, OpLt, V("i"), V("n"))
	loop := Fn("loop", Ps("i", TyInt, "n", TyInt, "a", TyInt, "b", TyInt, "p", TyPtr, "s", TyInt),
		lb.If(V("c"), odd.If(V("d"), pass(1), pass(2)), exit.Halt(V("r2"))))

	jb := NewBuilder()
	jb.Let("x", TyInt, OpLoad, V("p"), I(0))
	jb.Let("m", TyInt, OpMul, V("a"), V("b"))
	jb.Let("s1", TyInt, OpAdd, V("s"), V("m"))
	jb.Let("s2", TyInt, OpAdd, V("s1"), V("e"))
	jb.Let("s3", TyInt, OpAdd, V("s2"), V("x"))
	jb.Let("i1", TyInt, OpAdd, V("i"), I(1))
	join := Fn("join", Ps("i", TyInt, "n", TyInt, "a", TyInt, "b", TyInt, "p", TyPtr, "s", TyInt, "e", TyInt),
		jb.CallNamed("loop", V("i1"), V("n"), V("a"), V("b"), V("p"), V("s3")))
	return NewProgram("main", main, loop, join)
}

func TestHoistedParamsKeepOneIndexAcrossTheLoop(t *testing.T) {
	p := joinLoop()
	st, out := optimized(t, p)
	if st.Hoisted != 1 {
		t.Fatalf("Hoisted = %d, want 1 (a*b in join):\n%s", st.Hoisted, out)
	}
	// The hoisted parameter goes at the loop's shortest arity, 6, in both.
	members := map[string]*Function{}
	for _, name := range []string{"loop", "join"} {
		f, _ := p.Lookup(name)
		if f == nil {
			t.Fatalf("%s is gone:\n%s", name, out)
		}
		members[name] = f
	}
	const at = 6
	hoisted := members["loop"].Params[at].Name
	if !strings.HasPrefix(hoisted, "%") || members["join"].Params[at].Name != hoisted {
		t.Fatalf("the hoisted parameter is not at index %d of both members:\n%s", at, out)
	}
	if n := len(members["join"].Params); n != 8 || members["join"].Params[n-1].Name != "e" {
		t.Errorf("join's own extra parameter should follow the hoisted one:\n%s", out)
	}
	// Every call between members passes it on in place.
	calls := 0
	for name, f := range members {
		visitCalls(f.Body, func(c Call) {
			if fl, ok := c.Fn.(FunLit); ok && members[fl.Name] != nil {
				calls++
				if v, ok := c.Args[at].(Var); !ok || v.Name != hoisted {
					t.Errorf("%s → %s passes %v at index %d, want its own %s", name, fl.Name, c.Args[at], at, hoisted)
				}
			}
		})
	}
	if calls != 3 {
		t.Errorf("%d calls between members, want 3:\n%s", calls, out)
	}
	// The entry computes the product once; the loop no longer does.
	main, _ := p.Lookup("main")
	if s := Format(NewProgram("main", main)); strings.Count(s, "mul(") != 1 {
		t.Errorf("main should compute a*b once:\n%s", out)
	}
	if strings.Count(out, "mul(") != 1 {
		t.Errorf("a member still computes a*b:\n%s", out)
	}
}

func TestHoistingSkipsALoopEnteredWithTheWrongArity(t *testing.T) {
	p := joinLoop()
	main, _ := p.Lookup("main")
	main.Body, _ = mapCalls(main.Body, func(c Call) (Expr, bool) {
		c.Args = c.Args[:3] // short of the loop's shortest arity, 6
		return c, true
	})
	if st := Optimize(p); st.Hoisted != 0 {
		t.Errorf("Hoisted = %d into a loop entered with 3 of 6 arguments:\n%s", st.Hoisted, Format(p))
	}
}
