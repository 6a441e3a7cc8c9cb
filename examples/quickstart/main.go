// Quickstart: compile a MojC program that uses the speculation primitives
// and run it on both execution engines through the public core API.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rt"
)

const src = `
// Sum the squares 1..n speculatively: enter a speculation, do the work,
// and commit. If anything inside had trapped or aborted, the heap would
// roll back to the state at speculate().
int sumsq(int n) {
	ptr acc = alloc(1);
	int specid = speculate();
	if (specid > 0) {
		for (int i = 1; i <= n; i += 1) {
			acc[0] += i * i;
		}
		commit(specid);
		return acc[0];
	}
	return -1;
}

int main() {
	int r = sumsq(10);
	print_str("speculative sum of squares 1..10:");
	print_int(r);
	return r;
}
`

func main() {
	prog, err := core.Compile(src, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	for _, name := range engine.Names() {
		p, err := core.NewProcess(prog, name, rt.Config{Stdout: os.Stdout, Fuel: 1_000_000})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := p.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err := p.Run()
		fmt.Printf("[%s] status=%s halt=%d err=%v\n", name, st, p.HaltCode(), err)
		if p.HaltCode() != 385 {
			fmt.Fprintln(os.Stderr, "unexpected result")
			os.Exit(1)
		}
	}
}
