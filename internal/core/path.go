// path.go implements the interned path table: a canonicalising registry
// that maps each clean repository path to a single *PathKey, pre-linked to
// its ancestor chain. Function.ResolveKey walks that chain. Neither buys
// anything over Function.Resolve on a path string; both stay only because
// benchmark/probes.go interns through gitcite.Repo.Paths and times
// ResolveKey, and both go when that probe does.
package core

import (
	"sync"

	"github.com/gitcite/gitcite/internal/vcs"
)

// PathKey is an interned clean path. Keys are canonical within the
// PathTable that produced them: interning the same path twice returns the
// same pointer, and the parent chain is pre-linked up to the root, so
// ancestor walks follow pointers instead of re-slicing and re-hashing path
// strings. The zero PathKey is not valid; obtain keys from a PathTable.
type PathKey struct {
	clean  string
	parent *PathKey // nil for the root "/"
}

// Path returns the clean path the key stands for.
func (k *PathKey) Path() string { return k.clean }

// Parent returns the key of the path's parent directory, or nil for the
// root.
func (k *PathKey) Parent() *PathKey { return k.parent }

// PathTable interns paths. The zero value is ready to use; a table is safe
// for concurrent use. Interned keys are retained for the table's lifetime,
// so scope a table to state whose path population is bounded (a
// repository, a report builder) rather than feeding it unchecked input.
type PathTable struct {
	mu   sync.RWMutex
	keys map[string]*PathKey
}

// Intern cleans path and returns its canonical key, creating it — and its
// whole ancestor chain — on first sight. Interning an already-known path
// is one read-locked map hit.
func (t *PathTable) Intern(path string) (*PathKey, error) {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	k := t.keys[clean]
	t.mu.RUnlock()
	if k != nil {
		return k, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internLocked(clean), nil
}

// internLocked interns a clean path and its ancestors. Caller holds mu.
func (t *PathTable) internLocked(clean string) *PathKey {
	if k := t.keys[clean]; k != nil {
		return k
	}
	k := &PathKey{clean: clean}
	if clean != "/" {
		k.parent = t.internLocked(vcs.ParentPath(clean))
	}
	if t.keys == nil {
		t.keys = make(map[string]*PathKey)
	}
	t.keys[clean] = k
	return k
}

// Len reports how many distinct paths the table has interned (ancestors
// included).
func (t *PathTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.keys)
}
