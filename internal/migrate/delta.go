// Incremental checkpoints: capture (PackDelta) and chain resolution
// (FetchImage, ResolveChain). A checkpoint chain is a full Image followed
// by delta images, each naming its predecessor, all stored as ordinary
// Store objects; the head name holds a tiny ref record pointing at the
// last durable member, published only after that member's payload — the
// durability watermark resurrect reads.
package migrate

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/rt"
	"repro/internal/wire"
)

// maxChain bounds chain resolution, guarding against reference cycles in
// a corrupted store. The committer forces a full image every K deltas
// with K far below this.
const maxChain = 4096

// PackDelta captures the process's change set since the heap's snapshot
// baseline as a delta image based on the chain member `base`. Like Pack
// it stores the continuation into a fresh migrate_env block and runs a
// major collection first (so the delta also carries the frees). It
// returns nil (no error) when the heap has no baseline — the caller must
// capture a full image with Pack and MarkSnapshotBase instead.
func PackDelta(r rt.Runtime, label int, fnIdx int64, args []heap.Value, base string, seq int) (*wire.DeltaImage, error) {
	h := r.Heap()
	if !h.DeltaReady() {
		return nil, nil
	}
	code, err := prepare(r, label, fnIdx, args, false)
	if err != nil {
		return nil, err
	}
	delta := h.SnapshotDelta()
	if delta == nil {
		return nil, nil
	}
	code.Program = nil // byte-identical to the chain base's program
	code.TableLen = delta.TableLen
	// HeapWords here is the delta's own payload, not the full heap: the
	// rebuilt image's heap size comes from the snapshot itself.
	for _, e := range delta.Changed {
		code.HeapWords += len(e.Words)
	}
	return &wire.DeltaImage{
		Base:  base,
		Seq:   seq,
		Code:  code,
		Delta: *delta,
		// The continuation stack is small and not diffed; like the level
		// structure it travels whole so a checkpoint taken with open
		// speculation levels restores (spec.RestoreStack requires one
		// continuation per open level).
		Conts: r.Spec().Snapshot(),
	}, nil
}

// ErrBadHeadRef is the errors.Is identity of every BadHeadRefError:
// the durable watermark under a head name does not resolve to a chain.
var ErrBadHeadRef = errors.New("migrate: bad head ref")

// BadHeadRefError reports a chain that cannot be resolved from its head:
// the head record itself is corrupt or truncated, or the chain it names
// is broken (a member missing or unreadable mid-walk). It names the
// chain so an operator sweeping a shared store knows which process's
// watermark is damaged. errors.Is(err, ErrBadHeadRef) matches.
type BadHeadRefError struct {
	Chain  string // head name the resolution started from
	Member string // offending chain member ("" when the head record itself is bad)
	Detail string
	Err    error // underlying cause, when one exists
}

func (e *BadHeadRefError) Error() string {
	at := e.Chain
	if e.Member != "" {
		at = fmt.Sprintf("%s (member %q)", e.Chain, e.Member)
	}
	if e.Err != nil {
		return fmt.Sprintf("migrate: bad head ref at %q: %s: %v", at, e.Detail, e.Err)
	}
	return fmt.Sprintf("migrate: bad head ref at %q: %s", at, e.Detail)
}

func (e *BadHeadRefError) Unwrap() error { return e.Err }

// Is matches ErrBadHeadRef, so callers need no type assertion.
func (e *BadHeadRefError) Is(target error) bool { return target == ErrBadHeadRef }

// walkChain is the one chain walk both ResolveChain and FetchImage sit
// on: it resolves name (following a head ref once) back to the full
// root, returning member names newest-first, the decoded deltas
// (newest-first, one per member except the root) and the root's raw
// bytes. Each member is read and decoded exactly once — recovery
// latency is what the delta pipeline exists to shrink.
//
// A Get failure on the entry name itself passes through untouched (a
// missing checkpoint keeps its os.ErrNotExist identity — "no checkpoint
// yet" is an ordinary answer); every failure past that first read means
// a published watermark is damaged and surfaces as *BadHeadRefError.
func walkChain(store Store, name string) (names []string, deltas []*wire.DeltaImage, root []byte, err error) {
	cur := name
	for hops := 0; ; hops++ {
		if hops > maxChain {
			return nil, nil, nil, &BadHeadRefError{Chain: name, Member: cur,
				Detail: fmt.Sprintf("chain exceeds %d members (cycle?)", maxChain)}
		}
		data, err := store.Get(cur)
		if err != nil {
			if hops > 0 {
				return nil, nil, nil, &BadHeadRefError{Chain: name, Member: cur,
					Detail: "chain member unreadable", Err: err}
			}
			return nil, nil, nil, err
		}
		if wire.IsRefHeader(data) {
			target, ok := wire.DecodeRef(data)
			if !ok {
				// Member stays empty at hop 0: the damaged record IS the
				// head, not something it points at.
				e := &BadHeadRefError{Chain: name, Detail: "corrupt or truncated head ref record"}
				if hops > 0 {
					e.Member = cur
				}
				return nil, nil, nil, e
			}
			if hops > 0 {
				return nil, nil, nil, &BadHeadRefError{Chain: name, Member: cur,
					Detail: "head ref inside a chain"}
			}
			cur = target
			continue
		}
		names = append(names, cur)
		if !wire.IsDeltaImage(data) {
			if !wire.IsImage(data) {
				return nil, nil, nil, &BadHeadRefError{Chain: name, Member: cur,
					Detail: "chain root is neither a full nor a delta checkpoint"}
			}
			return names, deltas, data, nil // the full root
		}
		d, err := wire.DecodeDeltaImage(data)
		if err != nil {
			return nil, nil, nil, &BadHeadRefError{Chain: name, Member: cur,
				Detail: "corrupt delta member", Err: err}
		}
		deltas = append(deltas, d)
		cur = d.Base
	}
}

// ResolveChain returns the checkpoint chain ending at name, root first.
// name may hold a head ref, a delta image, or a full image (a chain of
// one).
func ResolveChain(store Store, name string) ([]string, error) {
	rev, _, _, err := walkChain(store, name)
	if err != nil {
		return nil, err
	}
	// Reverse to root-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// ErrBadCode matches (errors.Is) the error FetchImage returns for a
// checkpoint whose program reference does not resolve: the code object
// it names cannot be read, or its bytes do not hash to the reference.
// The image itself was found, so this is damage, never "no checkpoint
// yet": the error does not match os.ErrNotExist even when the code
// object is missing.
var ErrBadCode = errors.New("migrate: bad code object")

// fetchCode returns the program bytes under hash: the slice codes already
// holds, or else the code object read from store and checked against
// the hash, which codes then keeps.
func fetchCode(store Store, hash [sha256.Size]byte) ([]byte, error) {
	data, _, err := codes.Do(hash, func() ([]byte, error) {
		data, err := store.Get(CodeName(hash))
		if err != nil {
			return nil, err
		}
		if sha256.Sum256(data) != hash {
			return nil, errors.New("bytes do not hash to the reference")
		}
		return data, nil
	})
	return data, err
}

// FetchImage reads checkpoint `name` and resolves it to a full process
// image: a head ref is followed, a delta chain is walked back to its full
// root and rebuilt, a plain full image is taken as-is, and a program
// named by reference is filled in from its code object. This is how
// every checkpoint consumer (resurrection, -resume, LoadCheckpoint) reads
// the store, so delta chains and code objects are transparent to callers:
// the image returned always carries its program inline.
func FetchImage(store Store, name string) (*wire.Image, error) {
	_, deltas, root, err := walkChain(store, name)
	if err != nil {
		return nil, err
	}
	img, err := wire.DecodeImage(root)
	if err != nil {
		return nil, fmt.Errorf("migrate: checkpoint %q: chain root: %w", name, err)
	}
	// walkChain collected deltas newest-first; rebuild applies oldest-first.
	for i, j := 0, len(deltas)-1; i < j; i, j = i+1, j-1 {
		deltas[i], deltas[j] = deltas[j], deltas[i]
	}
	if img, err = wire.RebuildImage(img, deltas...); err != nil {
		return nil, err
	}
	if img.Code.ByReference() {
		program, err := fetchCode(store, img.Code.Hash)
		if err != nil {
			return nil, fmt.Errorf("migrate: checkpoint %q: code object %s: %v: %w", name, CodeName(img.Code.Hash), err, ErrBadCode)
		}
		// Hash stays: Unpack keys the program by it instead of hashing
		// the bytes fetchCode has just checked against it.
		img.Code.Program = program
	}
	return img, nil
}
