package lang

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/jit"
	"repro/internal/rt"
	"repro/internal/vm"
)

// compileAndRun compiles MojC source and runs it on the interpreter,
// returning the exit code and output.
func compileAndRun(t *testing.T, src string, extra rt.Registry, args ...int64) (int64, string) {
	t.Helper()
	sigs := rt.StdExterns().Sigs()
	for n, e := range extra {
		sigs[n] = e.Sig
	}
	prog, err := Compile(src, sigs)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var out bytes.Buffer
	p := vm.NewProcess(prog, nil, rt.Config{Fuel: 5_000_000, Stdout: &out, Args: args})
	for n, e := range extra {
		p.RegisterExtern(n, e.Sig, e.Fn)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v\nFIR:\n%s", err, fir.Format(prog))
	}
	st, err := p.Run()
	if st != rt.StatusHalted {
		t.Fatalf("status=%s err=%v (vm err=%v)\noutput: %s", st, err, p.Err(), out.String())
	}
	return p.HaltCode(), out.String()
}

func compileErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Compile(src, rt.StdExterns().Sigs())
	if err == nil {
		t.Fatalf("Compile accepted bad program:\n%s", src)
	}
	return err
}

func TestReturnConstant(t *testing.T) {
	code, _ := compileAndRun(t, `int main() { return 42; }`, nil)
	if code != 42 {
		t.Fatalf("code = %d", code)
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	code, _ := compileAndRun(t, `int main() { return 2 + 3 * 4 - 10 / 2 % 3; }`, nil)
	// 2 + 12 - (5 % 3) = 14 - 2 = 12
	if code != 12 {
		t.Fatalf("code = %d, want 12", code)
	}
}

func TestLocalsAndAssignment(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	int x = 3;
	int y;
	y = x * 2;
	x += y;
	x *= 2;
	return x;
}`, nil)
	if code != 18 {
		t.Fatalf("code = %d, want 18", code)
	}
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	code, _ := compileAndRun(t, `
int fact(int n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
int main() { return fact(10); }`, nil)
	if code != 3628800 {
		t.Fatalf("fact(10) = %d", code)
	}
}

func TestMutualRecursion(t *testing.T) {
	code, _ := compileAndRun(t, `
int isOdd(int n) {
	if (n == 0) { return 0; }
	return isEven(n - 1);
}
int isEven(int n) {
	if (n == 0) { return 1; }
	return isOdd(n - 1);
}
int main() { return isOdd(101) * 10 + isEven(101); }`, nil)
	if code != 10 {
		t.Fatalf("code = %d, want 10", code)
	}
}

func TestNestedCallsInExpressions(t *testing.T) {
	code, _ := compileAndRun(t, `
int add(int a, int b) { return a + b; }
int main() {
	int x = 5;
	int r = add(add(1, 2), add(3, x)) * 2;
	return r + x; // live variable survives the calls
}`, nil)
	if code != (3+8)*2+5 {
		t.Fatalf("code = %d, want %d", code, (3+8)*2+5)
	}
}

func TestWhileLoop(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	int i = 0;
	int sum = 0;
	while (i < 10) {
		sum += i;
		i += 1;
	}
	return sum;
}`, nil)
	if code != 45 {
		t.Fatalf("code = %d, want 45", code)
	}
}

func TestForLoopBreakContinue(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i += 1) {
		if (i % 2 == 0) { continue; }
		if (i > 20) { break; }
		sum += i;
	}
	return sum; // 1+3+...+19 = 100
}`, nil)
	if code != 100 {
		t.Fatalf("code = %d, want 100", code)
	}
}

func TestNestedLoops(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	int total = 0;
	for (int i = 0; i < 5; i += 1) {
		for (int j = 0; j < 5; j += 1) {
			if (j == i) { continue; }
			total += 1;
		}
	}
	return total;
}`, nil)
	if code != 20 {
		t.Fatalf("code = %d, want 20", code)
	}
}

func TestArraysAndCompoundStores(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	ptr a = alloc(10);
	for (int i = 0; i < 10; i += 1) {
		a[i] = i * i;
	}
	a[3] += 100;
	int sum = 0;
	for (int i = 0; i < 10; i += 1) {
		sum += a[i];
	}
	return sum;
}`, nil)
	want := int64(100)
	for i := int64(0); i < 10; i++ {
		want += i * i
	}
	if code != want {
		t.Fatalf("code = %d, want %d", code, want)
	}
}

func TestFloatArrays(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	fptr u = falloc(4);
	u[0] = 1.5;
	u[1] = 2.5;
	u[2] = u[0] + u[1];
	u[3] = u[2] * 2.0;
	float total = u[0] + u[1] + u[2] + u[3];
	return int(total); // 1.5+2.5+4+8 = 16
}`, nil)
	if code != 16 {
		t.Fatalf("code = %d, want 16", code)
	}
}

func TestCasts(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	float f = float(7) / 2.0;
	return int(f * 10.0); // 35
}`, nil)
	if code != 35 {
		t.Fatalf("code = %d, want 35", code)
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	code, out := compileAndRun(t, `
int noisy(int v) {
	print_int(v);
	return v;
}
int main() {
	int a = 0 && noisy(1); // noisy must not run
	int b = 1 || noisy(2); // noisy must not run
	int c = 1 && noisy(3); // runs
	int d = 0 || noisy(0); // runs
	return a * 1000 + b * 100 + c * 10 + d;
}`, nil)
	if code != 110 {
		t.Fatalf("code = %d, want 110", code)
	}
	if out != "3\n0\n" {
		t.Fatalf("output = %q (short circuit violated)", out)
	}
}

func TestStringsAndPrint(t *testing.T) {
	code, out := compileAndRun(t, `
int main() {
	print_str("hello mojave");
	ptr s = "abc";
	return s[0] + s[1] + s[2] + s[3] * 1000; // NUL terminator
}`, nil)
	if !strings.Contains(out, "hello mojave") {
		t.Fatalf("output = %q", out)
	}
	if code != 'a'+'b'+'c' {
		t.Fatalf("code = %d", code)
	}
}

func TestVoidFunctions(t *testing.T) {
	code, out := compileAndRun(t, `
void shout(int n) {
	print_int(n * 2);
}
int main() {
	shout(21);
	return 7;
}`, nil)
	if code != 7 || out != "42\n" {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestGetarg(t *testing.T) {
	code, _ := compileAndRun(t, `int main() { return getarg(0) + getarg(1); }`, nil, 30, 12)
	if code != 42 {
		t.Fatalf("code = %d", code)
	}
}

func TestPointerComparison(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	ptr a = alloc(1);
	ptr b = alloc(1);
	ptr c = a;
	int r = 0;
	if (a == c) { r += 1; }
	if (a != b) { r += 10; }
	return r;
}`, nil)
	if code != 11 {
		t.Fatalf("code = %d, want 11", code)
	}
}

func TestSpeculateCommit(t *testing.T) {
	// Figure 1's success path: speculate, do work, commit.
	code, _ := compileAndRun(t, `
int main() {
	ptr acct = alloc(2);
	acct[0] = 100;
	acct[1] = 50;
	int specid = speculate();
	if (specid > 0) {
		acct[0] -= 30;
		acct[1] += 30;
		commit(specid);
		return acct[0] * 1000 + acct[1]; // 70*1000 + 80
	}
	return -1;
}`, nil)
	if code != 70080 {
		t.Fatalf("code = %d, want 70080", code)
	}
}

func TestSpeculateAbortRestoresState(t *testing.T) {
	// Figure 1's failure path: abort rolls the heap back and speculate()
	// yields a non-positive value, taking the else branch.
	code, _ := compileAndRun(t, `
int main() {
	ptr acct = alloc(2);
	acct[0] = 100;
	acct[1] = 50;
	int specid = speculate();
	if (specid > 0) {
		acct[0] = 0;
		acct[1] = 0;
		abort(specid);
		return 999; // unreachable
	}
	// Heap must be restored.
	return acct[0] * 1000 + acct[1]; // 100*1000 + 50
}`, nil)
	if code != 100050 {
		t.Fatalf("code = %d, want 100050", code)
	}
}

func TestSpeculateRetryWithExternalProgress(t *testing.T) {
	// Retry with progress recorded outside the rolled-back state: an
	// extern counter survives rollbacks (models the neighbor's border data
	// arriving on the retry pass, Figure 2).
	calls := 0
	extra := rt.Registry{
		"attempt": {
			Sig: fir.ExternSig{Result: fir.TyInt},
			Fn: func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
				calls++
				return heap.IntVal(int64(calls)), nil
			},
		},
	}
	code, _ := compileAndRun(t, `
int main() {
	ptr cell = alloc(1);
	cell[0] = 10;
	int specid = speculate();
	int n = attempt();
	cell[0] += n; // speculative write
	if (n < 3) {
		retry(specid); // rollback: cell[0] back to 10, re-enter
	}
	commit(specid);
	return cell[0]; // 10 + 3 (only the committed pass survives)
}`, extra)
	if code != 13 {
		t.Fatalf("code = %d, want 13", code)
	}
	if calls != 3 {
		t.Fatalf("attempt() called %d times, want 3", calls)
	}
}

func TestNestedSpeculations(t *testing.T) {
	code, _ := compileAndRun(t, `
int main() {
	ptr p = alloc(1);
	p[0] = 1;
	int outer = speculate();
	if (outer > 0) {
		p[0] = 2;
		int innerid = speculate();
		if (innerid > 0) {
			p[0] = 3;
			abort(innerid); // inner rolled back: p[0] == 2
			return 90;
		}
		int mid = p[0]; // 2
		commit(outer);
		return mid * 10 + p[0]; // 22
	}
	return -1;
}`, nil)
	if code != 22 {
		t.Fatalf("code = %d, want 22", code)
	}
}

func TestMojCOnJitEngine(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(15); }`
	prog, err := Compile(src, rt.StdExterns().Sigs())
	if err != nil {
		t.Fatal(err)
	}
	m := jit.NewMachine(prog, nil, rt.Config{Fuel: 10_000_000})
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st != rt.StatusHalted || m.HaltCode() != 610 {
		t.Fatalf("jit: status=%s code=%d, want halted 610", st, m.HaltCode())
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no main":           `int notmain() { return 0; }`,
		"bad main sig":      `float main() { return 1.0; }`,
		"undeclared var":    `int main() { return x; }`,
		"type mismatch":     `int main() { int x = 1.5; return x; }`,
		"mixed arithmetic":  `int main() { return 1 + int(2.5) + (1 * 2); } int f() { float x = 1.0; return int(x + 1); }`,
		"bad call arity":    `int f(int a) { return a; } int main() { return f(1, 2); }`,
		"unknown function":  `int main() { return ghost(); }`,
		"break outside":     `int main() { break; return 0; }`,
		"void returns val":  `void f() { return 3; } int main() { f(); return 0; }`,
		"spec as expr":      `int main() { return speculate() + 1; }`,
		"commit not stmt":   `int main() { int x = commit(1); return x; }`,
		"store to int":      `int main() { int x = 1; x[0] = 2; return 0; }`,
		"float index":       `int main() { ptr p = alloc(1); return p[1.5]; }`,
		"redeclare":         `int main() { int x = 1; int x = 2; return x; }`,
		"assign undeclared": `int main() { y = 3; return 0; }`,
		"float mod":         `int main() { float f = 1.0; f %= 2.0; return 0; }`,
		"unterminated str":  `int main() { print_str("oops); return 0; }`,
		"stray char":        `int main() { return 1 @ 2; }`,
		"shadow builtin":    `int alloc(int n) { return n; } int main() { return 0; }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if name == "mixed arithmetic" {
				// This one is actually legal; replace with a real mix error.
				src = `int main() { return 1 + 2.5; }`
			}
			compileErr(t, src)
		})
	}
}

func TestDollarIdentifiersRejected(t *testing.T) {
	compileErr(t, `int main() { int $x = 1; return $x; }`)
}

func TestElseIfChain(t *testing.T) {
	src := `
int classify(int n) {
	if (n < 0) { return -1; }
	else if (n == 0) { return 0; }
	else if (n < 10) { return 1; }
	else { return 2; }
}
int main() {
	return classify(-5) * 1000 + classify(0) * 100 + classify(5) * 10 + classify(50);
}`
	code, _ := compileAndRun(t, src, nil)
	if code != -1000+0+10+2 {
		t.Fatalf("code = %d, want %d", code, -1000+0+10+2)
	}
}

func TestComments(t *testing.T) {
	code, _ := compileAndRun(t, `
// line comment
int main() {
	/* block
	   comment */
	return 5; // trailing
}`, nil)
	if code != 5 {
		t.Fatalf("code = %d", code)
	}
}
