// sync.go is the negotiated-sync engine behind the v1 protocol, used on both
// ends of the wire: the server runs MissingObjects to answer a negotiate, and
// the extension client runs the same function over its local store to decide
// what a push must upload. VerifyConnectedClosure is the server-side gate
// that keeps garbage pushes from landing orphan objects.
package hosting

import (
	"fmt"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// MissingObjects computes which objects of want's reachable closure a peer
// holding the have commits lacks. By the store closure invariant a peer that
// has a commit has its full object graph, so the walk can stop early:
//
//   - the commit walk from want prunes at every have commit it reaches, and
//   - each new commit's tree is diffed against its parents' trees, descending
//     only into subtrees whose IDs differ (identical IDs mean the peer — or
//     an earlier point of this very transfer — already has the whole subtree).
//
// Cost is therefore proportional to the delta: one new commit touching one
// file at tree depth d yields exactly d tree IDs + 1 blob ID + 1 commit ID,
// regardless of repository size. Have entries the walk never reaches are
// harmless; over-claiming is impossible, under-claiming only costs bandwidth
// (object Puts are idempotent). The returned IDs are ordered so that a
// commit's tree and blobs precede it and parents precede children.
func MissingObjects(s store.Store, want object.ID, have []object.ID) ([]object.ID, error) {
	var missing []object.ID
	err := walkMissingObjects(s, want, have, func(id object.ID) {
		missing = append(missing, id)
	})
	if err != nil {
		return nil, err
	}
	return missing, nil
}

// CountMissingObjects is MissingObjects without materialising the ID list —
// the want-all negotiate answers with a count only, so the per-object slice
// would be allocated just to measure its length.
func CountMissingObjects(s store.Store, want object.ID, have []object.ID) (int, error) {
	n := 0
	err := walkMissingObjects(s, want, have, func(object.ID) { n++ })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// walkMissingObjects runs the negotiate walk, calling visit once per
// missing object in transfer order (a commit's tree and blobs precede it,
// parents precede children).
func walkMissingObjects(s store.Store, want object.ID, have []object.ID, visit func(object.ID)) error {
	haveSet := make(map[object.ID]bool, len(have))
	for _, id := range have {
		haveSet[id] = true
	}
	if haveSet[want] || want.IsZero() {
		return nil
	}

	// Phase 1: discover the new commits, parents-first (iterative DFS
	// post-order), pruning at have commits.
	type frame struct {
		id       object.ID
		expanded bool
	}
	const (
		open = 1
		done = 2
	)
	state := make(map[object.ID]int)
	commits := make(map[object.ID]*object.Commit)
	var order []object.ID
	stack := []frame{{id: want}}
	for len(stack) > 0 {
		i := len(stack) - 1
		f := stack[i]
		if f.expanded {
			stack = stack[:i]
			if state[f.id] != done {
				state[f.id] = done
				order = append(order, f.id)
			}
			continue
		}
		if state[f.id] != 0 {
			stack = stack[:i]
			continue
		}
		state[f.id] = open
		stack[i].expanded = true
		c, err := store.GetCommit(s, f.id)
		if err != nil {
			return fmt.Errorf("hosting: negotiate walk %s: %w", f.id.Short(), err)
		}
		commits[f.id] = c
		for _, p := range c.Parents {
			if p.IsZero() || haveSet[p] || state[p] != 0 {
				continue
			}
			stack = append(stack, frame{id: p})
		}
	}

	// Phase 2: per new commit, emit the tree/blob delta against its parents'
	// trees. Parents are either known to the peer (have side) or earlier in
	// `order` — in both cases their subtrees need not travel again.
	emitted := make(map[object.ID]bool)
	emit := func(id object.ID) {
		if !emitted[id] {
			emitted[id] = true
			visit(id)
		}
	}
	var diffTree func(tid object.ID, bases []object.ID) error
	diffTree = func(tid object.ID, bases []object.ID) error {
		if emitted[tid] {
			return nil
		}
		for _, b := range bases {
			if b == tid {
				return nil
			}
		}
		t, err := store.GetTree(s, tid)
		if err != nil {
			return err
		}
		emit(tid)
		baseTrees := make([]*object.Tree, 0, len(bases))
		for _, b := range bases {
			bt, err := store.GetTree(s, b)
			if err != nil {
				return err
			}
			baseTrees = append(baseTrees, bt)
		}
		for _, e := range t.Entries() {
			same := false
			var childBases []object.ID
			for _, bt := range baseTrees {
				be, ok := bt.Entry(e.Name)
				if !ok {
					continue
				}
				if be.ID == e.ID {
					same = true
					break
				}
				if e.IsDir() && be.IsDir() {
					childBases = append(childBases, be.ID)
				}
			}
			if same {
				continue
			}
			if e.IsDir() {
				if err := diffTree(e.ID, childBases); err != nil {
					return err
				}
			} else {
				emit(e.ID)
			}
		}
		return nil
	}
	for _, cid := range order {
		c := commits[cid]
		var bases []object.ID
		for _, p := range c.Parents {
			if p.IsZero() {
				continue
			}
			pc, err := store.GetCommit(s, p)
			if err != nil {
				return fmt.Errorf("hosting: negotiate base %s: %w", p.Short(), err)
			}
			bases = append(bases, pc.TreeID)
		}
		if err := diffTree(c.TreeID, bases); err != nil {
			return err
		}
		emit(cid)
	}
	return nil
}

// VerifyConnectedClosure checks — before anything is stored — that tip is a
// commit and that every object reachable from it is either in uploaded or
// already present in s. The walk descends only through uploaded objects and
// prunes at stored ones (stored closures are connected by invariant), so a
// valid push is verified in O(uploaded), and a garbage push is rejected
// without landing a single orphan object.
func VerifyConnectedClosure(s store.Store, uploaded map[object.ID]object.Object, tip object.ID) error {
	tipObj, inUpload := uploaded[tip]
	if inUpload {
		if _, ok := tipObj.(*object.Commit); !ok {
			return fmt.Errorf("%w: push tip %s is a %v, want commit", ErrBadRequest, tip.Short(), tipObj.Type())
		}
	} else if _, err := store.GetCommit(s, tip); err != nil {
		return fmt.Errorf("%w: push tip %s not among uploaded objects or store", ErrBadRequest, tip.Short())
	}

	seen := make(map[object.ID]bool, len(uploaded))
	frontier := []object.ID{tip}
	for len(frontier) > 0 {
		var next, unknown []object.ID
		for _, id := range frontier {
			if id.IsZero() || seen[id] {
				continue
			}
			seen[id] = true
			o, ok := uploaded[id]
			if !ok {
				unknown = append(unknown, id)
				continue
			}
			switch v := o.(type) {
			case *object.Commit:
				next = append(next, v.TreeID)
				next = append(next, v.Parents...)
			case *object.Tree:
				for _, e := range v.Entries() {
					next = append(next, e.ID)
				}
			}
		}
		have, err := s.HasMany(unknown)
		if err != nil {
			return err
		}
		for i, id := range unknown {
			if !have[i] {
				return fmt.Errorf("%w: push closure missing object %s", ErrBadRequest, id.Short())
			}
		}
		frontier = next
	}
	return nil
}

// isAncestorOver reports whether anc is reachable from desc when commits may
// live either in s or in the not-yet-stored uploaded set — the fast-forward
// check a push must pass before its objects are admitted to the store.
func isAncestorOver(s store.Store, uploaded map[object.ID]object.Object, anc, desc object.ID) (bool, error) {
	getCommit := func(id object.ID) (*object.Commit, error) {
		if o, ok := uploaded[id]; ok {
			c, ok := o.(*object.Commit)
			if !ok {
				return nil, fmt.Errorf("%w: object %s is a %v, want commit", ErrBadRequest, id.Short(), o.Type())
			}
			return c, nil
		}
		return store.GetCommit(s, id)
	}
	seen := make(map[object.ID]bool)
	stack := []object.ID{desc}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id.IsZero() || seen[id] {
			continue
		}
		if id == anc {
			return true, nil
		}
		seen[id] = true
		c, err := getCommit(id)
		if err != nil {
			return false, err
		}
		stack = append(stack, c.Parents...)
	}
	return false, nil
}
