// Transfer reproduces Figure 1: an atomic funds transfer between two
// account objects over operations that may fail. The speculative version
// needs no hand-written undo code — when any step fails, abort() rolls the
// whole transfer back, and the error-recovery path is cleanly separated
// from the transfer logic.
//
// The account objects live in the speculative heap (the paper's MojaveFS
// future work extends the same guarantee to file I/O). Failures are
// injected from the host as a flaky io_ok() device signal that rejects
// every third operation. The program itself verifies the invariant the
// traditional version of Figure 1 struggles with: the total balance is
// conserved no matter where a failure lands.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/rt"
)

const src = `
// Swap the balances of obj1 and obj2, k words each, atomically. Each
// read/write consults the flaky device; any failure aborts the
// speculation, undoing every partial write.
int transfer(ptr obj1, ptr obj2, int k) {
	ptr buf1 = alloc(k);
	ptr buf2 = alloc(k);
	int specid = speculate();
	if (specid > 0) {
		for (int i = 0; i < k; i += 1) {          // read obj1
			if (io_ok() == 0) { abort(specid); }
			buf1[i] = obj1[i];
		}
		for (int i = 0; i < k; i += 1) {          // read obj2
			if (io_ok() == 0) { abort(specid); }
			buf2[i] = obj2[i];
		}
		for (int i = 0; i < k; i += 1) {          // write obj1
			if (io_ok() == 0) { abort(specid); }  // may fail MID-SWAP
			obj1[i] = buf2[i];
		}
		for (int i = 0; i < k; i += 1) {          // write obj2
			if (io_ok() == 0) { abort(specid); }
			obj2[i] = buf1[i];
		}
		commit(specid); // Speculation committed
		return 1;
	}
	// Speculation aborted: state as if the transfer never started.
	return 0;
}

int main() {
	int k = 4;
	ptr a = alloc(k);
	ptr b = alloc(k);
	a[0] = 100; a[1] = 11; a[2] = 12; a[3] = 13;
	b[0] = 50;  b[1] = 21; b[2] = 22; b[3] = 23;
	int total = a[0] + b[0];

	int attempts = getarg(0);
	int committed = 0;
	for (int t = 0; t < attempts; t += 1) {
		committed += transfer(a, b, k);
		if (a[0] + b[0] != total) {
			print_str("CONSERVATION VIOLATED");
			return -1;
		}
	}
	print_str("balances after all attempts:");
	print_int(a[0]);
	print_int(b[0]);
	return committed;
}
`

func main() {
	prog, err := core.Compile(src, map[string]fir.ExternSig{
		"io_ok": {Result: fir.TyInt},
	})
	if err != nil {
		fatal(err)
	}

	const attempts = 10
	ops, failures := 0, 0
	p, err := core.NewProcess(prog, "", rt.Config{
		Stdout: os.Stdout, Fuel: 10_000_000, Args: []int64{attempts},
	})
	if err != nil {
		fatal(err)
	}
	// The flaky device: every 23rd operation fails, landing failures at
	// varying positions inside the swap (including mid-write).
	p.RegisterExtern("io_ok", fir.ExternSig{Result: fir.TyInt},
		func(r rt.Runtime, a []heap.Value) (heap.Value, error) {
			ops++
			if ops%23 == 0 {
				failures++
				return heap.IntVal(0), nil
			}
			return heap.IntVal(1), nil
		})

	if err := p.Start(); err != nil {
		fatal(err)
	}
	st, err := p.Run()
	if st != rt.StatusHalted {
		fatal(fmt.Errorf("process %s: %v", st, err))
	}
	if p.HaltCode() < 0 {
		fatal(fmt.Errorf("the program observed a conservation violation"))
	}
	fmt.Printf("attempts: %d, committed: %d, injected failures: %d (of %d device ops)\n",
		attempts, p.HaltCode(), failures, ops)
	if failures == 0 || p.HaltCode() == attempts {
		fatal(fmt.Errorf("no failures were injected; the demonstration is vacuous"))
	}
	fmt.Println("transfer: every aborted transfer rolled back cleanly; total balance conserved")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "transfer:", err)
	os.Exit(1)
}
