// Overflow demonstrates §2's Rx-style bug survival: a program with an
// unchecked buffer overflow is instrumented with a speculation around the
// allocation. When the overflow trips the runtime bounds check, the
// process — instead of crashing — rolls back to where the allocation
// occurred and takes a different execution path that allocates more
// memory and retries.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/rt"
)

const src = `
// fill writes n values through buf. If buf is too small, the store traps:
// with speculation trapping enabled, the innermost speculation rolls back
// instead of the process dying.
void fill(ptr buf, int n) {
	for (int i = 0; i < n; i += 1) {
		buf[i] = i * 3;
	}
}

int main() {
	int need = getarg(0);      // how many items the input "really" has
	int capacity = 4;          // the buggy guess
	int specid = speculate();
	// After a trap-triggered rollback, speculate() yields -2 (the trap
	// status, negated); grow the buffer and retry on a fresh speculation.
	while (specid < 0) {
		capacity = capacity * 2;
		print_str("overflow detected; retrying with larger buffer:");
		print_int(capacity);
		specid = speculate();
	}
	ptr buf = alloc(capacity);
	fill(buf, need);           // may overflow and roll back
	commit(specid);
	int sum = 0;
	for (int i = 0; i < need; i += 1) {
		sum += buf[i];
	}
	return sum;
}
`

func main() {
	const need = 25 // needs capacity 32: two doublings from 4
	prog, err := core.Compile(src, nil)
	if err != nil {
		fatal(err)
	}
	p, err := core.NewProcess(prog, "", rt.Config{
		Stdout:          os.Stdout,
		Fuel:            10_000_000,
		Args:            []int64{need},
		TrapSpeculation: true, // the §2 instrumentation
	})
	if err != nil {
		fatal(err)
	}
	if err := p.Start(); err != nil {
		fatal(err)
	}
	st, err := p.Run()
	if st != rt.StatusHalted {
		fatal(fmt.Errorf("process %s: %v", st, err))
	}
	want := int64(0)
	for i := int64(0); i < need; i++ {
		want += i * 3
	}
	fmt.Printf("overflow: survived the bug; sum = %d (want %d)\n", p.HaltCode(), want)
	if p.HaltCode() != want {
		fatal(fmt.Errorf("wrong result after recovery"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "overflow:", err)
	os.Exit(1)
}
