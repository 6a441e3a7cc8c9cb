package ckpt_test

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/rt"
	"repro/internal/wire"
)

// putLog is a MemStore that records every Put and can fail the first
// Puts of code objects.
type putLog struct {
	*cluster.MemStore
	mu        sync.Mutex
	puts      map[string]int
	bytes     map[string]int
	failCodes int // code-object Puts still to fail
}

func newPutLog() *putLog {
	return &putLog{MemStore: cluster.NewMemStore(), puts: map[string]int{}, bytes: map[string]int{}}
}

func (s *putLog) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if migrate.IsCodeName(name) && s.failCodes > 0 {
		s.failCodes--
		return errors.New("store unavailable")
	}
	s.puts[name]++
	s.bytes[name] += len(data)
	return s.MemStore.Put(name, data)
}

// TestCodeObjectOncePerStore: in every mode, a run of checkpoints writes
// the program once, as the code object named by its hash, before the
// first image; every image names it by reference; FetchImage gives the
// program back; and the code object's bytes count in CodeBytes, not in
// BytesWritten.
func TestCodeObjectOncePerStore(t *testing.T) {
	for _, mode := range []ckpt.Mode{ckpt.ModeFull, ckpt.ModeDelta, ckpt.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRootedRuntime()
			block, err := r.h.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			r.roots = append(r.roots, block)
			st := newPutLog()
			c := ckpt.New(st, ckpt.Options{Mode: mode, K: 2})
			req := &rt.MigrationRequest{Rt: r, Label: 1, FnIndex: 2, Args: []heap.Value{block}}
			const n = 5
			for i := 0; i < n; i++ {
				if err := r.h.Store(block, int64(i), heap.IntVal(int64(i))); err != nil {
					t.Fatal(err)
				}
				if err := c.Checkpoint(req, "ck", 0); err != nil {
					t.Fatal(err)
				}
				r.pins = r.pins[:0]
			}
			c.Drain("ck")

			program, hash := migrate.ProgramCode(r.prog)
			code := migrate.CodeName(hash)
			var codes, imageBytes int
			for name, k := range st.puts {
				if migrate.IsCodeName(name) {
					codes += k
					continue
				}
				imageBytes += st.bytes[name]
				data, err := st.Get(name)
				if errors.Is(err, os.ErrNotExist) {
					continue // a chain member pruned by a later full image
				}
				if err != nil {
					t.Fatal(err)
				}
				if wire.IsImage(data) {
					img, err := wire.DecodeImage(data)
					if err != nil {
						t.Fatal(err)
					}
					if !img.Code.ByReference() || img.Code.Hash != hash {
						t.Fatalf("image %q does not name the program by reference", name)
					}
				}
			}
			if codes != 1 || st.puts[code] != 1 {
				t.Fatalf("%d code-object puts (%d of %s) for %d checkpoints, want 1", codes, st.puts[code], code, n)
			}
			img, err := migrate.FetchImage(st, "ck")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img.Code.Program, program) {
				t.Fatal("FetchImage did not resolve the program")
			}
			s := c.Stats()
			if s.CodeObjects != 1 || s.CodeBytes != uint64(len(program)) || s.BytesWritten != uint64(imageBytes) {
				t.Fatalf("stats %+v: want 1 code object of %d B and %d B of images", s, len(program), imageBytes)
			}
		})
	}
}

// TestFailedCodePutFailsCheckpoint: a checkpoint whose code object cannot
// be written fails like one whose image cannot, writes no image that
// would name a missing object, and the next checkpoint writes both.
func TestFailedCodePutFailsCheckpoint(t *testing.T) {
	for _, mode := range []ckpt.Mode{ckpt.ModeFull, ckpt.ModeDelta, ckpt.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRootedRuntime()
			st := newPutLog()
			st.failCodes = 1
			c := ckpt.New(st, ckpt.Options{Mode: mode})
			req := &rt.MigrationRequest{Rt: r, Label: 1, FnIndex: 2}
			if err := c.Checkpoint(req, "ck", 0); err == nil {
				t.Fatal("checkpoint succeeded without its code object")
			}
			r.pins = r.pins[:0]
			c.Drain("ck")
			if names, _ := st.List(); len(names) != 0 {
				t.Fatalf("a failed code put left %v in the store", names)
			}
			if err := c.Checkpoint(req, "ck", 0); err != nil {
				t.Fatal(err)
			}
			c.Drain("ck")
			if _, err := migrate.FetchImage(st, "ck"); err != nil {
				t.Fatalf("the retried checkpoint does not resolve: %v", err)
			}
			if s := c.Stats(); s.Checkpoints != 1 || s.CodeObjects != 1 {
				t.Fatalf("stats %+v: want 1 checkpoint and 1 code object", s)
			}
		})
	}
}
