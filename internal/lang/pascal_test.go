package lang

import (
	"bytes"
	"testing"

	"repro/internal/rt"
	"repro/internal/vm"
)

func compileAndRunPascal(t *testing.T, src string, args ...int64) (int64, string) {
	t.Helper()
	prog, err := CompilePascal(src, rt.StdExterns().Sigs())
	if err != nil {
		t.Fatalf("CompilePascal: %v", err)
	}
	var out bytes.Buffer
	p := vm.NewProcess(prog, nil, rt.Config{Fuel: 5_000_000, Stdout: &out, Args: args})
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st, _ := p.Run()
	if st != rt.StatusHalted {
		t.Fatalf("status=%s err=%v\noutput: %s", st, p.Err(), out.String())
	}
	return p.HaltCode(), out.String()
}

func TestPascalFactorial(t *testing.T) {
	code, _ := compileAndRunPascal(t, `
function fact(n: integer): integer;
begin
  if n <= 1 then begin fact := 1; exit; end;
  fact := n * fact(n - 1);
end;

function main(): integer;
begin
  main := fact(10);
end;
`)
	if code != 3628800 {
		t.Fatalf("fact(10) = %d", code)
	}
}

func TestPascalForLoopAndVarSection(t *testing.T) {
	code, _ := compileAndRunPascal(t, `
function main(): integer;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 10 do begin
    s := s + i;
  end;
  for i := 3 downto 1 do s := s + i * 100;
  main := s;
end;
`)
	if code != 55+600 {
		t.Fatalf("code = %d, want %d", code, 55+600)
	}
}

func TestPascalWhileAndOperators(t *testing.T) {
	code, _ := compileAndRunPascal(t, `
function main(): integer;
var i, s: integer;
begin
  i := 20;
  s := 0;
  while i > 0 do begin
    if (i mod 3 = 0) and (i <> 12) then s := s + i;
    i := i - 1;
  end;
  main := s;  { 3+6+9+15+18 }
end;
`)
	if code != 3+6+9+15+18 {
		t.Fatalf("code = %d, want %d", code, 3+6+9+15+18)
	}
}

func TestPascalIntegerDivision(t *testing.T) {
	code, _ := compileAndRunPascal(t, `
function main(): integer;
begin
  main := 17 div 5 * 100 + 17 mod 5;
end;
`)
	if code != 302 {
		t.Fatalf("code = %d, want 302", code)
	}
}

func TestPascalRealsAndCasts(t *testing.T) {
	code, _ := compileAndRunPascal(t, `
function half(x: real): real;
begin
  half := x / 2.0;
end;

function main(): integer;
var r: real;
begin
  r := half(real(7));
  main := integer(r * 10.0);  (* 35 *)
end;
`)
	if code != 35 {
		t.Fatalf("code = %d, want 35", code)
	}
}

func TestPascalArraysAndProcedures(t *testing.T) {
	code, out := compileAndRunPascal(t, `
procedure fill(a: pointer; n: integer);
var i: integer;
begin
  for i := 0 to n - 1 do a[i] := i * i;
end;

function main(): integer;
var a: pointer; s, i: integer;
begin
  a := alloc(10);
  fill(a, 10);
  s := 0;
  for i := 0 to 9 do s := s + a[i];
  print_int(s);
  main := s;
end;
`)
	want := int64(0)
	for i := int64(0); i < 10; i++ {
		want += i * i
	}
	if code != want || out != "285\n" {
		t.Fatalf("code=%d out=%q, want %d", code, out, want)
	}
}

func TestPascalSpeculationPrimitives(t *testing.T) {
	// The same Figure 1 semantics, in Pascal syntax.
	code, _ := compileAndRunPascal(t, `
function main(): integer;
var acct: pointer; specid: integer;
begin
  acct := alloc(2);
  acct[0] := 100;
  acct[1] := 50;
  specid := speculate();
  if specid > 0 then begin
    acct[0] := 0;
    acct[1] := 0;
    abort(specid);
    main := 999; exit;
  end;
  main := acct[0] * 1000 + acct[1];  { restored: 100050 }
end;
`)
	if code != 100050 {
		t.Fatalf("code = %d, want 100050", code)
	}
}

func TestPascalStringsAndBooleans(t *testing.T) {
	code, out := compileAndRunPascal(t, `
function main(): integer;
var s: pointer;
begin
  print_str('it''s pascal');
  s := 'ab';
  if true and not false then begin main := s[0] + s[1]; exit; end;
  main := 0;
end;
`)
	if out != "it's pascal\n" {
		t.Fatalf("output = %q", out)
	}
	if code != 'a'+'b' {
		t.Fatalf("code = %d", code)
	}
}

func TestPascalGridFragmentMatchesMojC(t *testing.T) {
	// The same numeric kernel in both frontends must agree exactly —
	// the FIR is language-agnostic.
	pascal := `
function main(): integer;
var u: fpointer; i: integer; sum: real;
begin
  u := falloc(16);
  for i := 0 to 15 do u[i] := real((i * 31) mod 100);
  sum := 0.0;
  for i := 1 to 14 do u[i] := 0.25 * (u[i-1] + u[i+1]) + 0.5 * u[i];
  for i := 0 to 15 do sum := sum + u[i];
  main := integer(sum * 1000.0);
end;
`
	mojc := `
int main() {
	fptr u = falloc(16);
	for (int i = 0; i <= 15; i += 1) { u[i] = float((i * 31) % 100); }
	float sum = 0.0;
	for (int i = 1; i <= 14; i += 1) { u[i] = 0.25 * (u[i-1] + u[i+1]) + 0.5 * u[i]; }
	for (int i = 0; i <= 15; i += 1) { sum += u[i]; }
	return int(sum * 1000.0);
}
`
	pcode, _ := compileAndRunPascal(t, pascal)
	ccode, _ := compileAndRun(t, mojc, nil)
	if pcode != ccode {
		t.Fatalf("pascal = %d, mojc = %d (frontends disagree)", pcode, ccode)
	}
}

func TestPascalErrors(t *testing.T) {
	cases := map[string]string{
		"missing then":   `function main(): integer; begin if 1 begin end; main := 0; end;`,
		"missing begin":  `function main(): integer; main := 0; end;`,
		"bad assign":     `function main(): integer; begin 3 := 4; end;`,
		"unknown var":    `function main(): integer; begin main := zz; end;`,
		"type mismatch":  `function main(): integer; var r: real; begin r := 1; main := 0; end;`,
		"unterm comment": `function main(): integer; begin main := 0; end; { oops`,
		"unterm string":  `function main(): integer; begin print_str('x); main := 0; end;`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := CompilePascal(src, rt.StdExterns().Sigs()); err == nil {
				t.Fatalf("accepted bad program:\n%s", src)
			}
		})
	}
}
