package vcs

import (
	"math"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// Flags the merge-base walk paints on the commits it reaches.
const (
	paintA      uint8 = 1 << iota // reached from a
	paintB                        // reached from b
	paintStale                    // an ancestor of a merge base already found
	paintQueued                   // waiting in the queue
)

// MergeBase computes a best common ancestor of two commits: a common
// ancestor not dominated by any other common ancestor. With multiple
// candidates (criss-cross merges) the one with the greatest longest-path
// distance from a is chosen, deterministically breaking remaining ties by
// ID. Returns ZeroID when either commit is zero or the two share no
// history.
//
// The walk paints down to the common ancestors, as Git does: a queue hands
// out commits highest generation first, so a commit is taken only after
// every commit that reaches it from a or b has painted it with the tips it
// is reached from. A commit painted from both tips is a merge base unless it
// is stale — an ancestor of a base already found — and it passes staleness
// on to its ancestors. The walk stops once nothing queued can still become a
// base, so it reads the commits since the fork, not the whole history.
func (r *Repository) MergeBase(a, b object.ID) (object.ID, error) {
	if a.IsZero() || b.IsZero() {
		return object.ZeroID, nil
	}
	w := paintWalk{r: r, flags: make(map[object.ID]uint8)}
	if err := w.paint(a, paintA); err != nil {
		return object.ZeroID, err
	}
	if err := w.paint(b, paintB); err != nil {
		return object.ZeroID, err
	}
	var bases []genItem
	for w.live > 0 {
		e := w.queue.pop()
		f := w.flags[e.id] &^ paintQueued
		if f&paintStale == 0 {
			w.live--
			if f == paintA|paintB {
				bases = append(bases, e)
				f |= paintStale
			}
		}
		w.flags[e.id] = f
		c, err := r.Commit(e.id)
		if err != nil {
			return object.ZeroID, err
		}
		for _, p := range c.Parents {
			if err := w.paint(p, f); err != nil {
				return object.ZeroID, err
			}
		}
	}
	switch len(bases) {
	case 0:
		return object.ZeroID, nil
	case 1:
		return bases[0].id, nil
	}
	return r.farthestBase(a, bases)
}

// paintWalk is the state of one MergeBase walk. live counts the queued
// commits that are not stale: while it is non-zero, a base may remain.
type paintWalk struct {
	r     *Repository
	flags map[object.ID]uint8
	queue genQueue
	live  int
}

// paint adds f to id's flags, queueing id if it is not queued already.
func (w *paintWalk) paint(id object.ID, f uint8) error {
	if id.IsZero() {
		return nil
	}
	old := w.flags[id]
	now := old | f
	if now == old {
		return nil
	}
	switch {
	case old&paintQueued == 0:
		g, err := w.r.generation(id)
		if err != nil {
			return err
		}
		w.queue.push(genItem{id: id, gen: g})
		now |= paintQueued
		if now&paintStale == 0 {
			w.live++
		}
	case old&paintStale == 0 && now&paintStale != 0:
		w.live--
	}
	w.flags[id] = now
	return nil
}

// farthestBase picks, among several merge bases, the one with the greatest
// longest-path distance from a, then the smallest ID. The distances come
// from one pass over a's ancestors in generation order, highest first, so
// each commit's distance is final when it is taken. The pass stops at the
// lowest base's generation: generations fall strictly along a path, so no
// path from a to a base leaves the commits at or above it.
func (r *Repository) farthestBase(a object.ID, bases []genItem) (object.ID, error) {
	floor := uint32(math.MaxUint32)
	for _, b := range bases {
		floor = min(floor, b.gen)
	}
	ga, err := r.generation(a)
	if err != nil {
		return object.ZeroID, err
	}
	dist := map[object.ID]int{a: 0}
	q := genQueue{{id: a, gen: ga}}
	for len(q) > 0 {
		e := q.pop()
		if e.gen == floor {
			continue // its parents all lie below the floor
		}
		c, err := r.Commit(e.id)
		if err != nil {
			return object.ZeroID, err
		}
		d := dist[e.id] + 1
		for _, p := range c.Parents {
			if p.IsZero() {
				continue
			}
			g, err := r.generation(p)
			if err != nil {
				return object.ZeroID, err
			}
			if g < floor {
				continue
			}
			old, seen := dist[p]
			if !seen {
				q.push(genItem{id: p, gen: g})
			}
			if !seen || d > old {
				dist[p] = d
			}
		}
	}
	best := bases[0].id
	for _, b := range bases[1:] {
		di, dj := dist[b.id], dist[best]
		if di > dj || (di == dj && b.id.String() < best.String()) {
			best = b.id
		}
	}
	return best, nil
}

// generation returns id's generation number: 1 for a root commit, otherwise
// one more than its highest parent's. Numbers are memoised on the handle.
// A missing one is filled, together with those of every ancestor the memo
// lacks, by one iterative depth-first walk that reads each of those commits
// once.
func (r *Repository) generation(id object.ID) (uint32, error) {
	if g, ok := r.knownGeneration(id); ok {
		return g, nil
	}
	// frame is a commit whose generation waits on its parents':
	// parents[:next] are known and top is the highest of them.
	type frame struct {
		id      object.ID
		parents []object.ID
		next    int
		top     uint32
	}
	c, err := r.Commit(id)
	if err != nil {
		return 0, err
	}
	stack := []frame{{id: id, parents: c.Parents}}
	var g uint32
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		for ; f.next < len(f.parents); f.next++ {
			p := f.parents[f.next]
			if p.IsZero() {
				continue
			}
			pg, ok := r.knownGeneration(p)
			if !ok {
				break
			}
			f.top = max(f.top, pg)
		}
		if f.next < len(f.parents) {
			p := f.parents[f.next]
			c, err := r.Commit(p)
			if err != nil {
				return 0, err
			}
			stack = append(stack, frame{id: p, parents: c.Parents})
			continue
		}
		g = f.top + 1
		r.setGeneration(f.id, g)
		stack = stack[:len(stack)-1]
	}
	return g, nil
}

func (r *Repository) knownGeneration(id object.ID) (uint32, bool) {
	r.genMu.Lock()
	g, ok := r.gens[id]
	r.genMu.Unlock()
	return g, ok
}

func (r *Repository) setGeneration(id object.ID, g uint32) {
	r.genMu.Lock()
	if r.gens == nil {
		r.gens = make(map[object.ID]uint32)
	}
	r.gens[id] = g
	r.genMu.Unlock()
}

// genItem is a commit queued with its generation number.
type genItem struct {
	id  object.ID
	gen uint32
}

// genQueue is a binary max-heap of commits by generation number.
type genQueue []genItem

func (q *genQueue) push(it genItem) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].gen >= h[i].gen {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

func (q *genQueue) pop() genItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		hi, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].gen > h[hi].gen {
			hi = l
		}
		if r < len(h) && h[r].gen > h[hi].gen {
			hi = r
		}
		if hi == i {
			break
		}
		h[i], h[hi] = h[hi], h[i]
		i = hi
	}
	*q = h
	return top
}
