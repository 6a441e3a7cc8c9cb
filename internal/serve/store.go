package serve

import (
	"fmt"
	"strings"

	"repro/internal/migrate"
)

// prefixStore is a namespaced view of the daemon's one shared checkpoint
// store: run r sees only names under "r<id>.", so concurrent tenants can
// use identical checkpoint names (every app calls its chains "ck-<node>")
// without trampling each other. The "." separator keeps the composed
// names legal for every store implementation (DirStore rejects path
// separators, not dots).
type prefixStore struct {
	prefix string
	inner  migrate.Store
}

func runPrefix(id uint64) string { return fmt.Sprintf("r%d.", id) }

func (p prefixStore) Put(name string, data []byte) error {
	return p.inner.Put(p.prefix+name, data)
}

func (p prefixStore) Get(name string) ([]byte, error) {
	return p.inner.Get(p.prefix + name)
}

func (p prefixStore) List() ([]string, error) {
	names, err := p.inner.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, p.prefix); ok {
			out = append(out, rest)
		}
	}
	return out, nil
}

// Delete forwards pruning into the namespace.
func (p prefixStore) Delete(name string) error {
	return p.inner.Delete(p.prefix + name)
}

// sweep deletes every object in the namespace from the shared store —
// the explicit (non-best-effort) delete path a finished run's chains go
// through. It reports how many objects it deleted and the FIRST delete
// error (every failure still counts in the daemon's gc_failures metric
// via the returned failed count).
func (p prefixStore) sweep() (deleted, failed int, first error) {
	names, err := p.inner.List()
	if err != nil {
		return 0, 0, fmt.Errorf("serve: listing store for gc: %w", err)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, p.prefix) {
			continue
		}
		if err := p.inner.Delete(n); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("serve: gc %q: %w", n, err)
			}
			continue
		}
		deleted++
	}
	return deleted, failed, first
}
