package lang

import "repro/internal/fir"

// Compile translates MojC source into an optimised, type-checked FIR
// program. externs declares the external functions the target runtime
// provides (pass rt.StdExterns().Sigs(), plus any message-passing or
// application externs); extern calls are type-checked against these
// signatures both here and again by fir.Check on the result.
func Compile(src string, externs map[string]fir.ExternSig) (*fir.Program, error) {
	ast, err := parse(src)
	if err != nil {
		return nil, err
	}
	return compile(ast, externs)
}

// optimize runs the FIR mid-end between lowering and checking; tests turn
// it off to compare a program with its unoptimised lowering.
var optimize = true

// compile is every front end's back half: lower → fir.Optimize →
// fir.Check. The program the engines run, `mcc -emit fir` prints and
// migration images carry is the optimised one.
func compile(ast *Program, externs map[string]fir.ExternSig) (*fir.Program, error) {
	sm, err := analyze(ast, externs)
	if err != nil {
		return nil, err
	}
	p, err := lower(ast, sm)
	if err != nil {
		return nil, err
	}
	if optimize {
		fir.Optimize(p)
	}
	// The lowering and the optimiser must always produce well-typed FIR;
	// checking here turns any bug in either into a compile-time failure
	// instead of a runtime surprise.
	if err := fir.Check(p, externs); err != nil {
		return nil, err
	}
	return p, nil
}
