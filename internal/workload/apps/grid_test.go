package apps

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestLexerCorpusCopyIsCurrent keeps internal/lang's copy of the grid
// source — its fuzz seed and matcher-equivalence corpus; lang cannot
// import this package — equal to the real one.
func TestLexerCorpusCopyIsCurrent(t *testing.T) {
	b, err := os.ReadFile("../../lang/testdata/grid.mc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), strings.TrimLeft(gridSource, "\n")) {
		t.Fatal("internal/lang/testdata/grid.mc no longer ends with gridSource; copy it again")
	}
}

// smallGrid is the shape of the allocation and at-rest checks: big
// enough to checkpoint four times per node, small enough for tier 1.
var smallGrid = workload.Params{Nodes: 3, Size: 4, Aux: 8, Steps: 16, CheckpointInterval: 4, Workers: 2}

// TestJitRunAllocBudget: a failure-free grid run on jit, with the
// program compiled up front, makes fewer than 500 heap allocations
// (about 390 today). The run takes some 55 000 steps and sends 64 border
// messages, so a per-step or per-message allocation blows the budget.
func TestJitRunAllocBudget(t *testing.T) {
	p := smallGrid
	p.Engine = "jit"
	prog, err := (grid{}).Program(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := workload.Run(grid{}, p, workload.RunConfig{Program: prog})
		if err != nil {
			t.Fatal(err)
		}
		if err := (grid{}).Verify(p, res.Nodes); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun makes one warm-up call before it counts.
	got := testing.AllocsPerRun(10, run)
	t.Logf("%.0f allocations per run", got)
	if got >= 500 {
		t.Fatalf("a grid run on jit allocates %.0f times, budget under 500", got)
	}
}

// TestCompressedStoreHalvesBytesAtRest: the same grid run in delta mode
// leaves at least twice as many bytes in a plain dir: store as in a
// compressed zdir: one (about 2.45× today; 2.9× while every full image
// carried its own copy of the program, which deflates well).
func TestCompressedStoreHalvesBytesAtRest(t *testing.T) {
	p := smallGrid
	p.Ckpt = "delta"
	atRest := func(scheme string) int64 {
		dir := t.TempDir()
		st, err := store.Open(scheme+":"+dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.RunVerified(grid{}, p, workload.RunConfig{Store: st}); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		var total int64
		err = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	plain, z := atRest("dir"), atRest("zdir")
	t.Logf("bytes at rest: dir %d, zdir %d (%.2f×)", plain, z, float64(plain)/float64(z))
	if plain < 2*z {
		t.Fatalf("zdir holds %d B at rest, dir %d B: not at least 2× smaller", z, plain)
	}
}
