package jit

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fir"
	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/msg"
	"repro/internal/rt"
)

// TestLiteralCallsAreKnown: every call whose callee is a function literal
// of matching arity compiles to a jCallKnown, over grid.mc and the
// conformance corpus; only computed callees and arity mismatches stay on
// the generic path. Grid's known calls keep at most 5 runtime argument
// checks: every other argument's kind is already proven.
func TestLiteralCallsAreKnown(t *testing.T) {
	sigs := rt.StdExterns().Sigs()
	for n, s := range msg.Sigs() {
		sigs[n] = s
	}
	sigs["ck_name"] = fir.ExternSig{Result: fir.TyPtr}
	files, err := filepath.Glob("../conformance/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("conformance corpus: %v (%d files)", err, len(files))
	}
	for _, f := range append([]string{"../lang/testdata/grid.mc"}, files...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Compile(string(src), sigs)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		c, err := Precompile(prog)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var known, generic, checks, moves int
		for pc, in := range c.code {
			switch in.op {
			case jCall:
				generic++
				if int(in.a) >= c.constBase {
					if fn := c.consts[int(in.a)-c.constBase]; fn.Kind == heap.KFun && len(prog.Funcs[fn.I].Params) == len(in.args) {
						t.Errorf("%s: pc %d calls %s through jCall", f, pc, prog.Funcs[fn.I].Name)
					}
				}
			case jCallKnown:
				known++
				checks += len(in.run)
				moves += len(in.moves)
			}
		}
		t.Logf("%s: %d known calls (%d moves, %d runtime checks), %d generic", filepath.Base(f), known, moves, checks, generic)
		if filepath.Base(f) == "grid.mc" && checks > 5 {
			t.Errorf("grid.mc: known calls check %d argument kinds at run time, want at most 5", checks)
		}
	}
}
