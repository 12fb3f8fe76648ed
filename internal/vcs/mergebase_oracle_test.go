package vcs

import "github.com/gitcite/gitcite/internal/vcs/object"

// The merge base as it was computed before the generation-ordered walk, kept
// as the oracle the property tests hold MergeBase to: two reachability walks
// over the whole history, the common set, and a walk of the dominated set.

// oracleMergeBase computes a best common ancestor of two commits: a common
// ancestor not dominated by any other common ancestor. With multiple
// candidates (criss-cross merges) the one with the greatest commit
// generation depth is chosen, deterministically breaking remaining ties by
// ID. Returns ZeroID when the commits share no history.
func (r *Repository) oracleMergeBase(a, b object.ID) (object.ID, error) {
	reachA, err := r.reachableDepths(a)
	if err != nil {
		return object.ZeroID, err
	}
	reachB, err := r.reachableDepths(b)
	if err != nil {
		return object.ZeroID, err
	}
	// Common ancestors.
	common := make(map[object.ID]bool)
	for id := range reachA {
		if _, ok := reachB[id]; ok {
			common[id] = true
		}
	}
	if len(common) == 0 {
		return object.ZeroID, nil
	}
	// Drop any common ancestor that is a strict ancestor of another common
	// ancestor ("dominated"). Every ancestor of a common ancestor is itself
	// a common ancestor (reachability is transitive), so the common set is
	// ancestor-closed and one multi-source parent walk from all common
	// ancestors marks exactly the dominated ones — no pairwise full-history
	// IsAncestor checks.
	dominated := make(map[object.ID]bool, len(common))
	stack := make([]object.ID, 0, len(common))
	for id := range common {
		c, err := r.Commit(id)
		if err != nil {
			return object.ZeroID, err
		}
		stack = append(stack, c.Parents...)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id.IsZero() || dominated[id] {
			continue
		}
		dominated[id] = true
		c, err := r.Commit(id)
		if err != nil {
			return object.ZeroID, err
		}
		stack = append(stack, c.Parents...)
	}
	var best object.ID
	found := false
	for id := range common {
		if dominated[id] {
			continue
		}
		if !found {
			best, found = id, true
			continue
		}
		// Criss-cross: pick the deepest (max generation), tie-break by ID.
		di, dj := reachA[id], reachA[best]
		if di > dj || (di == dj && id.String() < best.String()) {
			best = id
		}
	}
	return best, nil
}

// reachableDepths maps every commit reachable from start to its maximum
// generation depth (root commits have the greatest depth values).
func (r *Repository) reachableDepths(start object.ID) (map[object.ID]int, error) {
	depths := make(map[object.ID]int)
	type frame struct {
		id    object.ID
		depth int
	}
	stack := []frame{{start, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.id.IsZero() {
			continue
		}
		if d, ok := depths[f.id]; ok && d >= f.depth {
			continue
		}
		depths[f.id] = f.depth
		c, err := r.Commit(f.id)
		if err != nil {
			return nil, err
		}
		for _, p := range c.Parents {
			stack = append(stack, frame{p, f.depth + 1})
		}
	}
	return depths, nil
}
