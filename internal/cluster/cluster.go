// Package cluster simulates the paper's test bed: a set of compute nodes
// running MCC processes, connected by the message-passing router, with a
// shared reliable checkpoint store (the paper's NFS mount), per-node
// failure injection, and resurrection of failed processes from
// checkpoint files. Engine runs the nodes.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/fir"
	"repro/internal/msg"
	"repro/internal/rt"
)

// MemStore is an in-memory migrate.Store: the degenerate "reliable
// distributed storage medium" for single-process simulations and tests.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Put stores a checkpoint. The copy overwrites the previous buffer for
// name when it fits: Get only ever hands out copies, so the old bytes
// are unaliased, and a steady checkpoint loop (same head name, same
// image size every interval) stores without allocating.
func (s *MemStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.m[name]
	if cap(cp) < len(data) {
		cp = make([]byte, len(data))
	}
	cp = cp[:len(data)]
	copy(cp, data)
	s.m[name] = cp
	return nil
}

// Get retrieves a checkpoint. A missing name reports os.ErrNotExist (so
// callers can tell "no checkpoint yet" from I/O failure), and the
// returned slice is a defensive copy — callers may retain or mutate it
// without aliasing the stored bytes.
func (s *MemStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[name]
	if !ok {
		return nil, fmt.Errorf("cluster: checkpoint %q: %w", name, os.ErrNotExist)
	}
	out := make([]byte, len(d))
	copy(out, d)
	return out, nil
}

// Delete removes a checkpoint; deleting a missing name is a no-op (the
// checkpoint pipeline prunes superseded chain members best-effort).
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
	return nil
}

// List enumerates checkpoint names, sorted.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// DirStore is a directory-backed migrate.Store — checkpoint files are real
// executables-with-header on disk, visible to every "node" like the
// paper's NFS mount.
type DirStore struct{ Dir string }

// NewDirStore creates the directory if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{Dir: dir}, nil
}

func (s *DirStore) path(name string) (string, error) {
	if strings.ContainsAny(name, "/\\") || name == "" || name == "." || name == ".." {
		return "", fmt.Errorf("cluster: invalid checkpoint name %q", name)
	}
	return filepath.Join(s.Dir, name+".mcc"), nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. A package variable so tests can assert the call happens on the
// Put path (and simulate a store medium that fails the sync).
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Put writes a checkpoint file (mode 0755: checkpoints are executables).
// The write is crash-safe: data goes to a uniquely named temp file in the
// store directory, is fsynced, is atomically renamed into place, and the
// directory itself is fsynced so the rename survives power loss (the
// temp-file fsync alone makes the *bytes* durable, not the entry) — a
// node that dies mid-checkpoint can never leave a truncated image behind
// to poison a later Resurrect, and concurrent writers of the same name
// never stomp each other's temp file.
func (s *DirStore) Put(name string, data []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.Dir, "."+name+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if werr == nil {
		werr = f.Chmod(0o755)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, p)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	return syncDir(s.Dir)
}

// Get reads a checkpoint file. A missing checkpoint keeps its
// os.ErrNotExist identity through the added context, so callers can
// distinguish "no checkpoint yet" from real I/O failure with errors.Is.
func (s *DirStore) Get(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("cluster: checkpoint %q: %w", name, err)
	}
	return data, nil
}

// Delete removes a checkpoint file; a missing file is a no-op.
func (s *DirStore) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// List enumerates checkpoint names, sorted. A store directory that has
// disappeared lists as empty (indistinguishable from "no checkpoints
// yet") rather than erroring: List gates best-effort recovery decisions,
// and callers that must distinguish probe with Get.
func (s *DirStore) List() ([]string, error) {
	ents, err := os.ReadDir(s.Dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if n, ok := strings.CutSuffix(e.Name(), ".mcc"); ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ProcState is a node process's final disposition.
type ProcState struct {
	Node   int64
	Status rt.Status
	Halt   int64
	Err    error
	Killed bool
	Steps  uint64
}

// Externs returns the extern signature set a program running on this
// cluster compiles against: the standard set plus message passing.
func Externs() map[string]fir.ExternSig {
	sigs := rt.StdExterns().Sigs()
	for n, s := range msg.Sigs() {
		sigs[n] = s
	}
	return sigs
}
