package lang

import "repro/internal/fir"

// Unoptimized runs compile with the FIR mid-end switched off, so a test
// can compare a program with its plain lowering (lower → Check). compile
// may be any path that reaches Compile or CompilePascal — a workload's
// Program method, say. Tests using it must not run in parallel.
func Unoptimized(compile func() (*fir.Program, error)) (*fir.Program, error) {
	optimize = false
	defer func() { optimize = true }()
	return compile()
}

// CompileUnoptimized is Compile without the FIR mid-end.
func CompileUnoptimized(src string, externs map[string]fir.ExternSig) (*fir.Program, error) {
	return Unoptimized(func() (*fir.Program, error) { return Compile(src, externs) })
}
