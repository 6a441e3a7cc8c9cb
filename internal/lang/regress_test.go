package lang

import (
	"bytes"
	"testing"

	"repro/internal/fir"
	"repro/internal/rt"
	"repro/internal/vm"
)

// Regression: a compound assignment whose right side is a user call used
// to generate a return continuation whose reload destinations were read
// AFTER the assignment rebound the variable, leaving the add's operand
// unbound.

func TestCompoundAssignWithCall(t *testing.T) {
	src := `
int t(int a) { return a + 1; }
int main() {
	int s = 0;
	for (int i = 0; i < 3; i += 1) {
		s += t(i);
	}
	return s;
}`
	code, _ := compileAndRun(t, src, nil)
	if code != 6 {
		t.Fatalf("code = %d, want 6", code)
	}
}

// TestOptimizerDifferential lowers a corpus of MojC programs, runs the
// FIR optimizer over one copy, and requires identical observable
// behaviour (status, exit code, output).
func TestOptimizerDifferential(t *testing.T) {
	corpus := map[string]string{
		"fact": `
int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
int main() { return fact(9); }`,
		"loops": `
int main() {
	int s = 0;
	for (int i = 0; i < 50; i += 1) {
		if (i % 4 == 0) { continue; }
		if (i > 40) { break; }
		s += i * 2;
	}
	return s;
}`,
		"heapAndPrint": `
int main() {
	ptr a = alloc(8);
	for (int i = 0; i < 8; i += 1) { a[i] = i * i + 3; }
	int s = 0;
	for (int i = 0; i < 8; i += 1) { s += a[i]; }
	print_int(s);
	return s;
}`,
		"spec": `
int main() {
	ptr p = alloc(1);
	p[0] = 5;
	int id = speculate();
	if (id > 0) {
		p[0] = 50;
		abort(id);
		return 0;
	}
	return p[0];
}`,
		"constFoldable": `
int main() {
	int a = 2 + 3 * 4;
	float f = 1.5 * 2.0;
	if (a == 14 && int(f) == 3) { return 7 * 6; }
	return 0;
}`,
	}
	for name, src := range corpus {
		t.Run(name, func(t *testing.T) {
			sigs := rt.StdExterns().Sigs()
			plain, err := CompileUnoptimized(src, sigs)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := CompileUnoptimized(src, sigs)
			if err != nil {
				t.Fatal(err)
			}
			st := fir.Optimize(opt)
			if err := fir.Check(opt, sigs); err != nil {
				t.Fatalf("optimized program fails Check: %v", err)
			}
			run := func(p *fir.Program) (int64, string, uint64) {
				var out bytes.Buffer
				proc := vm.NewProcess(p, nil, rt.Config{Fuel: 5_000_000, Stdout: &out})
				if err := proc.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := proc.Run(); err != nil {
					t.Fatal(err)
				}
				return proc.HaltCode(), out.String(), proc.Steps()
			}
			c1, o1, s1 := run(plain)
			c2, o2, s2 := run(opt)
			if c1 != c2 || o1 != o2 {
				t.Fatalf("optimizer changed behaviour: (%d,%q) vs (%d,%q)", c1, o1, c2, o2)
			}
			if s2 > s1 {
				t.Fatalf("optimized program runs MORE steps (%d > %d)", s2, s1)
			}
			if st.Folded+st.CopiesProp+st.DeadLets == 0 {
				t.Fatalf("optimizer did nothing on %s", name)
			}
		})
	}
}
