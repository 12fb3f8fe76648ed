package gitcite

import (
	"sync"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// functionGeneration is how many versions one generation of a FunctionCache
// holds; the cache keeps one to two generations resident. It is sized for a
// hosting platform's working set of browsed versions (the benchmark's
// registry-style workload reads 2 048 across 256 repositories), which costs
// little because the functions of a generation share their entry records.
const functionGeneration = 2048

// FunctionCache holds decoded citation functions by the root tree ID of the
// version they belong to. A version's root tree fixes its citation.cite, so
// the key needs no repository: a hit needs no tree read, no blob read and no
// decode, a repository reopened after eviction finds its versions decoded,
// and a fork — which shares the parent's commits and trees — shares the
// parent's entries. Committed versions are immutable, so an entry never goes
// stale; the bound is purely one of memory.
//
// Eviction is generational: inserts fill the current generation, and when it
// is full it becomes the old one and the previous old one is dropped. A hit
// in the current generation takes only the shared lock; a hit in the old one
// moves the entry forward, at most once per generation, so a version read in
// every generation stays resident. The functions decoded into a cache share
// records through its core.RecordTable, which ages with the same
// generations.
//
// The zero value is an empty cache ready to use. A hosting platform hands one
// to every repository it opens (Repo.ShareFunctionCache); any other Repo
// makes its own on first use.
type FunctionCache struct {
	mu       sync.RWMutex
	cur, old map[object.ID]*core.Function
	records  core.RecordTable
}

// get returns the function cached for a root tree, or nil.
func (c *FunctionCache) get(tree object.ID) *core.Function {
	c.mu.RLock()
	fn, current := c.cur[tree]
	if !current {
		fn = c.old[tree]
	}
	c.mu.RUnlock()
	if fn != nil && !current {
		c.mu.Lock()
		if _, ok := c.cur[tree]; !ok {
			c.putLocked(tree, fn)
		}
		c.mu.Unlock()
	}
	return fn
}

// add caches a function just decoded for a root tree and returns the one
// every reader is to share: a concurrent loader's, if it got there first.
func (c *FunctionCache) add(tree object.ID, fn *core.Function) *core.Function {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.cur[tree]; ok {
		return cur
	}
	if old, ok := c.old[tree]; ok {
		fn = old
	}
	c.putLocked(tree, fn)
	return fn
}

// seed caches the function a commit just wrote under the root tree it
// built, without looking up what the cache holds: whatever that is, it
// reads the same.
func (c *FunctionCache) seed(tree object.ID, fn *core.Function) {
	c.mu.Lock()
	c.putLocked(tree, fn)
	c.mu.Unlock()
}

// putLocked stores fn in the current generation, starting a new generation
// first if the current one is full. Caller holds mu exclusively.
func (c *FunctionCache) putLocked(tree object.ID, fn *core.Function) {
	if _, ok := c.cur[tree]; !ok && len(c.cur) >= functionGeneration {
		c.rotateLocked()
	}
	if c.cur == nil {
		c.cur = make(map[object.ID]*core.Function)
	}
	c.cur[tree] = fn
}

// Rotate starts a new generation now, as an insert into a full current
// generation does: versions not read again before the next rotation leave
// the cache, and so do the records only they held.
func (c *FunctionCache) Rotate() {
	c.mu.Lock()
	c.rotateLocked()
	c.mu.Unlock()
}

func (c *FunctionCache) rotateLocked() {
	c.old, c.cur = c.cur, make(map[object.ID]*core.Function, len(c.cur))
	c.records.Rotate()
}
