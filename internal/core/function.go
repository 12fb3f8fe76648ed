package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/gitcite/gitcite/internal/vcs"
)

// Function is a citation function C(V,P): a partial map from the clean
// rooted paths of one project version to citations. The root path "/" is
// always in the active domain (paper §2), so resolution is total.
//
// A Function is safe for concurrent use: any number of readers (Resolve,
// ResolveChain, Get, Has, ...) may run in parallel with each other and with
// writers (Add, Delete, Modify, Rename, ...). A read changes nothing: Resolve
// walks from the path up to the root against the entry map under the read
// lock and remembers no answer, so a version read by many requests holds
// nothing but its entries.
//
// Committed versions hold snapshots taken with Clone, which is
// copy-on-write: the clone shares the entry map with its source until
// either side is next mutated, so snapshotting a large function is O(1).
// Entries are immutable Records shared by pointer: a mutation replaces the
// record at one path and every other path keeps the record (and the
// serialisation memoised on it) it had in the previous version.
// Methods that change the function correspond one-to-one to the paper's
// operators: Add (AddCite), Delete (DelCite), Modify (ModifyCite), Rename
// (the side effect of Git renames), plus the subtree and merge operations
// that implement CopyCite and MergeCite.
type Function struct {
	mu      sync.RWMutex
	entries map[string]*Record
	// cow marks the entry map as shared with at least one other Function
	// (a Clone source or product); the next mutation copies it first.
	cow bool
}

// Errors returned by citation-function operations.
var (
	ErrNoEntry       = errors.New("core: path has no explicit citation")
	ErrEntryExists   = errors.New("core: path already has an explicit citation")
	ErrRootRequired  = errors.New("core: the root must keep a citation")
	ErrPathNotInTree = errors.New("core: path does not exist in the version tree")
	ErrEmptyCitation = errors.New("core: refusing to attach an empty citation")
)

// NewFunction creates a citation function whose root carries the given
// default citation. The root citation must pass ValidateRoot.
func NewFunction(root Citation) (*Function, error) {
	if err := root.ValidateRoot(); err != nil {
		return nil, err
	}
	return &Function{entries: map[string]*Record{"/": NewRecord(root.Clone())}}, nil
}

// MustNewFunction is NewFunction that panics on error; for tests.
func MustNewFunction(root Citation) *Function {
	f, err := NewFunction(root)
	if err != nil {
		panic(err)
	}
	return f
}

// FromEntries builds a function from explicit path→citation pairs. The set
// must include the root.
func FromEntries(entries map[string]Citation) (*Function, error) {
	records := make(map[string]*Record, len(entries))
	for p, c := range entries {
		records[p] = NewRecord(c.Clone())
	}
	return FromRecords(records)
}

// FromRecords is FromEntries over ready-made records, which the function
// shares rather than copies — how a codec builds a function without cloning
// what it just decoded, and how a canonical function reuses the records of
// the version before it.
func FromRecords(records map[string]*Record) (*Function, error) {
	f := &Function{entries: make(map[string]*Record, len(records))}
	for p, r := range records {
		clean, err := vcs.CleanPath(p)
		if err != nil {
			return nil, err
		}
		if r.cite.IsZero() {
			return nil, fmt.Errorf("%w: %q", ErrEmptyCitation, clean)
		}
		f.entries[clean] = r
	}
	root, ok := f.entries["/"]
	if !ok {
		return nil, fmt.Errorf("%w: no entry for \"/\"", ErrRootRequired)
	}
	if err := root.cite.ValidateRoot(); err != nil {
		return nil, err
	}
	return f, nil
}

// Clone returns an independent snapshot — the value stored with a committed
// version. The snapshot is copy-on-write: both functions share the entry
// map until one of them is next mutated, so cloning is O(1) regardless of
// the active domain's size.
func (f *Function) Clone() *Function {
	f.mu.Lock()
	f.cow = true
	out := &Function{entries: f.entries, cow: true}
	f.mu.Unlock()
	return out
}

// Assign makes f a copy-on-write snapshot of g, as f = g.Clone() would, but
// in place: everyone holding f sees g's entries from now on. Worktrees use
// it to re-base their live function onto the version they just committed.
func (f *Function) Assign(g *Function) {
	g.mu.Lock()
	g.cow = true
	entries := g.entries
	g.mu.Unlock()
	f.mu.Lock()
	f.entries, f.cow = entries, true
	f.mu.Unlock()
}

// prepareWriteLocked readies the function for a mutation: a shared
// (copy-on-write) entry map is copied. Records are shared by the copy — they
// are immutable, so a shallow map copy fully detaches the two functions.
// Callers hold mu.
func (f *Function) prepareWriteLocked() {
	if f.cow {
		m := make(map[string]*Record, len(f.entries))
		for p, c := range f.entries {
			m[p] = c
		}
		f.entries = m
		f.cow = false
	}
}

// Len returns the number of explicit entries (the active domain's size).
func (f *Function) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.entries)
}

// Root returns the root citation.
func (f *Function) Root() Citation {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.entries["/"].cite.Clone()
}

// Has reports whether the path is in the active domain.
func (f *Function) Has(path string) bool {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return false
	}
	f.mu.RLock()
	_, ok := f.entries[clean]
	f.mu.RUnlock()
	return ok
}

// Get returns the explicit citation attached to path, or ErrNoEntry if the
// path is not in the active domain. (Use Resolve for the paper's Cite.) The
// returned citation is a deep copy the caller may freely mutate.
func (f *Function) Get(path string) (Citation, error) {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return Citation{}, err
	}
	f.mu.RLock()
	c, ok := f.entries[clean]
	f.mu.RUnlock()
	if !ok {
		return Citation{}, fmt.Errorf("%w: %q", ErrNoEntry, clean)
	}
	return c.cite.Clone(), nil
}

// Add implements AddCite: attach a citation to a path that has none. The
// path must exist in the version tree.
func (f *Function) Add(tree Tree, path string, c Citation) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if c.IsZero() {
		return fmt.Errorf("%w: %q", ErrEmptyCitation, clean)
	}
	if !tree.Exists(clean) {
		return fmt.Errorf("%w: %q", ErrPathNotInTree, clean)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[clean]; ok {
		return fmt.Errorf("%w: %q (use Modify)", ErrEntryExists, clean)
	}
	f.prepareWriteLocked()
	f.entries[clean] = NewRecord(c.Clone())
	return nil
}

// Modify implements ModifyCite: replace the citation attached to a path in
// the active domain. Modifying the root revalidates the root requirements.
func (f *Function) Modify(path string, c Citation) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if c.IsZero() {
		return fmt.Errorf("%w: %q", ErrEmptyCitation, clean)
	}
	if clean == "/" {
		if err := c.ValidateRoot(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[clean]; !ok {
		return fmt.Errorf("%w: %q (use Add)", ErrNoEntry, clean)
	}
	f.prepareWriteLocked()
	f.entries[clean] = NewRecord(c.Clone())
	return nil
}

// Set is Add-or-Modify: attach or replace without caring which; the path
// must exist in the tree. Used by system-side updates (copy, retro). The
// check-and-write is atomic, so Set never fails with an add-vs-modify
// error under concurrent mutators.
func (f *Function) Set(tree Tree, path string, c Citation) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if c.IsZero() {
		return fmt.Errorf("%w: %q", ErrEmptyCitation, clean)
	}
	if clean == "/" {
		if err := c.ValidateRoot(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[clean]; !ok && !tree.Exists(clean) {
		return fmt.Errorf("%w: %q", ErrPathNotInTree, clean)
	}
	f.prepareWriteLocked()
	f.entries[clean] = NewRecord(c.Clone())
	return nil
}

// Delete implements DelCite: remove a path from the active domain. The root
// cannot be deleted (paper §2: the root must be in the active domain).
func (f *Function) Delete(path string) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return ErrRootRequired
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.entries[clean]; !ok {
		return fmt.Errorf("%w: %q", ErrNoEntry, clean)
	}
	f.prepareWriteLocked()
	delete(f.entries, clean)
	return nil
}

// Resolve implements the paper's Cite(V,P)(n): the citation explicitly
// attached to the path, or that of its closest cited ancestor. The second
// return names the active-domain path the citation came from. Resolution is
// total because the root is always present.
//
// Resolve walks from the clean path up to the root, one map lookup per
// level, and allocates nothing. The returned citation shares its AuthorList
// and Extra storage with the function: treat those fields as read-only, or
// Clone the citation before mutating them. Scalar fields of the returned
// value may be set freely.
func (f *Function) Resolve(path string) (Citation, string, error) {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return Citation{}, "", err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for p := clean; ; p = vcs.ParentPath(p) {
		if r, ok := f.entries[p]; ok {
			return r.cite, p, nil
		}
		if p == "/" {
			// Unreachable for well-formed functions; guard anyway.
			return Citation{}, "", ErrRootRequired
		}
	}
}

// ResolveKey is Resolve for an interned path (see PathTable): the same
// walk and the same sharing rules for the returned citation, following the
// key's pre-linked parent chain. It is no faster than Resolve and exists
// only because benchmark/probes.go times it as core.resolve_key_ns; drop it
// with that probe. A key must not be nil.
func (f *Function) ResolveKey(k *PathKey) (Citation, string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for a := k; a != nil; a = a.parent {
		if r, ok := f.entries[a.clean]; ok {
			return r.cite, a.clean, nil
		}
	}
	// Unreachable for well-formed functions (the chain ends at "/", which
	// always has an entry); guard anyway.
	return Citation{}, "", ErrRootRequired
}

// ResolveChain implements the alternative semantics the paper mentions
// ("ones that include every citation on the path from n to r"): every
// explicit citation on the root-to-node path, ordered root first, so the
// first link is always the root's. The slice is fresh and the caller's; its
// citations share storage as Resolve's do.
func (f *Function) ResolveChain(path string) ([]PathCitation, error) {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return nil, err
	}
	var out []PathCitation
	f.mu.RLock()
	defer f.mu.RUnlock()
	for p := clean; p != "/"; p = vcs.ParentPath(p) {
		if r, ok := f.entries[p]; ok {
			out = append(out, PathCitation{Path: p, Citation: r.cite})
		}
	}
	root, ok := f.entries["/"]
	if !ok {
		// Unreachable for well-formed functions; guard anyway.
		return nil, ErrRootRequired
	}
	out = append(out, PathCitation{Path: "/", Citation: root.cite})
	slices.Reverse(out)
	return out, nil
}

// ActiveDomain lists the explicit entries in sorted path order. Citations
// are deep copies the caller may freely mutate.
func (f *Function) ActiveDomain() []PathCitation {
	f.mu.RLock()
	out := make([]PathCitation, 0, len(f.entries))
	for p, r := range f.entries {
		out = append(out, PathCitation{Path: p, Citation: r.cite.Clone()})
	}
	f.mu.RUnlock()
	sortPathCitations(out)
	return out
}

// Records lists the explicit entries in sorted path order as the shared
// records themselves: nothing is copied, and a codec finds (or leaves) its
// memo on each.
func (f *Function) Records() []PathRecord {
	f.mu.RLock()
	out := make([]PathRecord, 0, len(f.entries))
	for p, r := range f.entries {
		out = append(out, PathRecord{Path: p, Record: r})
	}
	f.mu.RUnlock()
	slices.SortFunc(out, func(a, b PathRecord) int { return strings.Compare(a.Path, b.Path) })
	return out
}

// Paths lists the active-domain paths in sorted order.
func (f *Function) Paths() []string {
	f.mu.RLock()
	out := make([]string, 0, len(f.entries))
	for p := range f.entries {
		out = append(out, p)
	}
	f.mu.RUnlock()
	return sortedStrings(out)
}

// Rename rekeys the entry at oldPath — and, when oldPath is a directory,
// every entry beneath it — to newPath, reflecting a file or directory
// move/rename in the version tree (paper §2: "if a file or directory in the
// active domain of the citation function is moved or renamed then the
// citation function must be modified"). Paths outside the active domain are
// ignored (nothing to rekey). Renaming the root is an error.
func (f *Function) Rename(oldPath, newPath string) error {
	oldClean, err := vcs.CleanPath(oldPath)
	if err != nil {
		return err
	}
	newClean, err := vcs.CleanPath(newPath)
	if err != nil {
		return err
	}
	if oldClean == "/" || newClean == "/" {
		return fmt.Errorf("%w: cannot rename the root", vcs.ErrBadPath)
	}
	if oldClean == newClean {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	moved := map[string]*Record{}
	for p, c := range f.entries {
		if vcs.IsAncestorPath(oldClean, p) {
			np, err := vcs.RebasePath(p, oldClean, newClean)
			if err != nil {
				return err
			}
			moved[np] = c
		}
	}
	if len(moved) == 0 {
		return nil
	}
	f.prepareWriteLocked()
	for p := range f.entries {
		if vcs.IsAncestorPath(oldClean, p) {
			delete(f.entries, p)
		}
	}
	for p, c := range moved {
		f.entries[p] = c
	}
	return nil
}

// Prune drops every entry (except the root) whose path no longer exists in
// the tree, returning the removed paths in sorted order. This is the
// system-side cleanup after deletes and merges (paper §3: "delete any
// entries that correspond to files that were deleted by the Git merge").
func (f *Function) Prune(tree Tree) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var removed []string
	for p := range f.entries {
		if p == "/" {
			continue
		}
		if !tree.Exists(p) {
			removed = append(removed, p)
		}
	}
	if len(removed) > 0 {
		f.prepareWriteLocked()
		for _, p := range removed {
			delete(f.entries, p)
		}
	}
	return sortedStrings(removed)
}

// Validate checks well-formedness against a version tree: the root entry
// exists and satisfies the root requirements, and every active-domain path
// exists in the tree.
func (f *Function) Validate(tree Tree) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	root, ok := f.entries["/"]
	if !ok {
		return fmt.Errorf("%w: no entry for \"/\"", ErrRootRequired)
	}
	if err := root.cite.ValidateRoot(); err != nil {
		return err
	}
	for p, r := range f.entries {
		if !tree.Exists(p) {
			return fmt.Errorf("%w: %q", ErrPathNotInTree, p)
		}
		if r.cite.IsZero() {
			return fmt.Errorf("%w: %q", ErrEmptyCitation, p)
		}
	}
	return nil
}

// snapshot returns a shallow copy of the entry map: a private map of the
// function's shared records. Safe to iterate without holding the lock.
func (f *Function) snapshot() map[string]*Record {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m := make(map[string]*Record, len(f.entries))
	for p, c := range f.entries {
		m[p] = c
	}
	return m
}

// Equal reports whether two functions have identical active domains and
// entry-wise equal citations.
func (f *Function) Equal(o *Function) bool {
	if f == o {
		return true
	}
	// Snapshot both sides separately so two locks are never held at once.
	fe, oe := f.snapshot(), o.snapshot()
	if len(fe) != len(oe) {
		return false
	}
	for p, c := range fe {
		oc, ok := oe[p]
		if !ok || !c.equal(oc) {
			return false
		}
	}
	return true
}

func sortedStrings(s []string) []string {
	sort.Strings(s)
	return s
}
