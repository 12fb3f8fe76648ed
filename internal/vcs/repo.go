package vcs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// Repository combines an object store with a reference store and provides
// version-graph operations: committing, branching, history traversal and
// merge-base computation. It corresponds to one "project repository" in the
// paper's model — a DAG of versions, each a rooted tree.
type Repository struct {
	Objects store.Store
	Refs    refs.Store

	// tipMu serialises the branch moves made through this handle, each
	// from its tip read to its ref write (moveBranch), so two commits on
	// one tip cannot both succeed.
	tipMu sync.Mutex

	// genMu guards gens, the generation numbers MergeBase has needed
	// through this handle (see generation). A commit ID names immutable
	// content, so an entry never goes stale; the memo lives in memory only
	// and is filled lazily, never by a commit or by opening the repository.
	genMu sync.Mutex
	gens  map[object.ID]uint32
}

// ErrNoCommits reports an operation that needs a commit on a branch that has
// none yet.
var ErrNoCommits = errors.New("vcs: branch has no commits")

// objectCacheCap bounds the decoded-object cache every repository layers
// over its raw store. Objects are immutable, so cached entries never go
// stale; hot commits and trees skip both I/O and decoding on every read
// after the first.
const objectCacheCap = 4096

// NewMemoryRepository creates a repository backed entirely by memory.
// Reads go through a decoded-object cache: the memory store holds
// canonical encodings, so without it every Get would re-decode.
func NewMemoryRepository() *Repository {
	return &Repository{
		Objects: store.NewCachedStore(store.NewMemoryStore(), objectCacheCap),
		Refs:    refs.NewMemoryStore(),
	}
}

// OpenPackedFileRepository opens (creating if needed) a repository persisted
// under dir — objects in dir/objects, refs in dir/refs + dir/HEAD. It is the
// one way to open an on-disk repository: objects append to pack files under
// dir/objects/pack with a sorted fan-out ID index per pack, and the loose
// objects of a repository written before every repository wrote packs stay
// readable under dir/objects until Repack folds them in. Reads go through a
// decoded-object cache.
func OpenPackedFileRepository(dir string) (*Repository, error) {
	objs, err := store.NewPackStore(dir + "/objects")
	if err != nil {
		return nil, err
	}
	rs, err := refs.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	return &Repository{Objects: store.NewCachedStore(objs, objectCacheCap), Refs: rs}, nil
}

// Close releases the repository's storage resources — for an on-disk
// repository, the open pack file handles (the decoded-object cache
// forwards to its backend). A memory-backed repository holds no persistent
// handles, so Close is a no-op for it. The repository
// must not be used after Close; reopening the same directory yields a
// fresh, fully consistent instance (crash-safety of the on-disk formats
// guarantees that even without Close). This is the close chain the hosted
// platform's bounded open-repo LRU rides on.
func (r *Repository) Close() error {
	if c, ok := r.Objects.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Repack folds the repository's legacy loose objects into its pack storage
// and consolidates its packs (store.PackStore.Repack). It reports how many
// loose objects were folded in, and errors for a repository not on disk
// (an in-memory one). The fold is concurrent: it may run alongside
// reads and commits, which keep succeeding for its whole duration — the
// store lock is taken only to freeze the append target at the start and
// for the brief fsync'd swap at the end. A store already consolidated to a
// single pack with nothing loose returns without rewriting anything.
func (r *Repository) Repack() (int, error) {
	objs := r.Objects
	if cs, ok := objs.(*store.CachedStore); ok {
		objs = cs.Backend()
	}
	ps, ok := objs.(*store.PackStore)
	if !ok {
		return 0, fmt.Errorf("vcs: repository object store is %T, not pack-based", objs)
	}
	return ps.Repack()
}

// ErrAmbiguousPrefix reports an abbreviated commit ID matching more than
// one commit.
var ErrAmbiguousPrefix = errors.New("vcs: ambiguous commit ID prefix")

// ResolveCommitPrefix resolves an abbreviated (lower- or upper-case) hex
// commit-ID prefix to the single commit it names. Non-commit objects
// sharing the prefix are ignored; more than one matching commit reports
// ErrAmbiguousPrefix, none reports store.ErrNotFound. The candidate set
// comes from the store's ordered ID index (store.IDsByPrefix), so a lookup
// is O(log n) — never a full IDs() enumeration — on stores with native
// prefix support.
func (r *Repository) ResolveCommitPrefix(prefix string) (object.ID, error) {
	ids, err := r.Objects.IDsByPrefix(prefix, 0)
	if err != nil {
		return object.ZeroID, err
	}
	var match object.ID
	found := 0
	for _, id := range ids {
		if _, err := r.Commit(id); err != nil {
			continue // a blob or tree may share the prefix; only commits count
		}
		match = id
		if found++; found > 1 {
			return object.ZeroID, fmt.Errorf("%w: %q matches %d or more commits", ErrAmbiguousPrefix, prefix, found)
		}
	}
	if found == 0 {
		return object.ZeroID, fmt.Errorf("commit prefix %q: %w", prefix, store.ErrNotFound)
	}
	return match, nil
}

// CommitOptions carries the metadata for a new commit.
type CommitOptions struct {
	Author  object.Signature
	Message string
	// Committer defaults to Author when zero.
	Committer object.Signature
}

func (o CommitOptions) committer() object.Signature {
	if o.Committer == (object.Signature{}) {
		return o.Author
	}
	return o.Committer
}

// Sig is a convenience constructor for commit signatures.
func Sig(name, email string, when time.Time) object.Signature {
	return object.NewSignature(name, email, when)
}

// CommitTree records a commit pointing at treeID with the given parents and
// returns the new commit's ID. It does not move any ref.
func (r *Repository) CommitTree(treeID object.ID, parents []object.ID, opts CommitOptions) (object.ID, error) {
	if _, err := store.GetTree(r.Objects, treeID); err != nil {
		return object.ZeroID, fmt.Errorf("vcs: commit tree: %w", err)
	}
	for _, p := range parents {
		if _, err := store.GetCommit(r.Objects, p); err != nil {
			return object.ZeroID, fmt.Errorf("vcs: commit parent %s: %w", p.Short(), err)
		}
	}
	c := &object.Commit{
		TreeID:    treeID,
		Parents:   append([]object.ID(nil), parents...),
		Author:    opts.Author,
		Committer: opts.committer(),
		Message:   opts.Message,
	}
	return r.Objects.Put(c)
}

// CommitFiles builds a tree from the flat file map and commits it on the
// named branch (advancing the branch ref). The parent is the branch's
// current tip, if any.
func (r *Repository) CommitFiles(branch string, files map[string]FileContent, opts CommitOptions) (object.ID, error) {
	treeID, err := BuildTree(r.Objects, files)
	if err != nil {
		return object.ZeroID, err
	}
	return r.CommitTreeOnBranch(branch, treeID, opts)
}

// CommitDelta builds a tree incrementally — the edits and removals applied
// against baseTree, via BuildTreeDelta — and commits it on the named
// branch. Cost is proportional to the delta: unchanged subtrees of
// baseTree are reused without re-hashing. A zero baseTree builds from
// scratch.
func (r *Repository) CommitDelta(branch string, baseTree object.ID, edits map[string]TreeEdit, removed []string, opts CommitOptions) (object.ID, error) {
	treeID, err := BuildTreeDelta(r.Objects, baseTree, edits, removed)
	if err != nil {
		return object.ZeroID, err
	}
	return r.CommitTreeOnBranch(branch, treeID, opts)
}

// CommitTreeOnBranch commits an already-built tree on the named branch,
// using the branch tip (if any) as the parent and advancing the ref.
func (r *Repository) CommitTreeOnBranch(branch string, treeID object.ID, opts CommitOptions) (object.ID, error) {
	return r.commitOnTip(branch, treeID, opts, nil)
}

// ErrTipMoved reports that a branch no longer points where the caller last
// saw it.
var ErrTipMoved = errors.New("vcs: branch tip moved")

// CommitTreeOnTip is CommitTreeOnBranch for a caller that built treeID
// against the version it believes is the branch tip: it fails with
// ErrTipMoved, committing nothing, unless the tip is expect (zero: the
// branch is unborn). The check rides on the ref read that finds the parent.
func (r *Repository) CommitTreeOnTip(branch string, expect, treeID object.ID, opts CommitOptions) (object.ID, error) {
	return r.commitOnTip(branch, treeID, opts, &expect)
}

func (r *Repository) commitOnTip(branch string, treeID object.ID, opts CommitOptions, expect *object.ID) (object.ID, error) {
	return r.moveBranch(branch, expect, func(tip object.ID) (object.ID, error) {
		var parents []object.ID
		if !tip.IsZero() {
			parents = []object.ID{tip}
		}
		return r.CommitTree(treeID, parents, opts)
	})
}

// MergeCommitOnBranch records a merge commit with the branch tip as first
// parent and other as second, pointing at treeID, and advances the branch.
func (r *Repository) MergeCommitOnBranch(branch string, treeID, other object.ID, opts CommitOptions) (object.ID, error) {
	return r.moveBranch(branch, nil, func(tip object.ID) (object.ID, error) {
		if tip.IsZero() {
			return object.ZeroID, fmt.Errorf("vcs: merge target: %w: %s", refs.ErrNotFound, refs.BranchRef(branch))
		}
		return r.CommitTree(treeID, []object.ID{tip, other}, opts)
	})
}

// MoveBranchFrom points branch at the commit next returns, provided the
// branch still points at expect (zero: unborn); otherwise it fails with
// ErrTipMoved and calls nothing. It is serialised with every commit and
// move made through this repository handle, so a caller that read the tip
// earlier — to merge it, say — cannot overwrite a commit that landed in
// between. next runs under that serialisation, so it must not commit or
// move a branch through r itself.
func (r *Repository) MoveBranchFrom(branch string, expect object.ID, next func() (object.ID, error)) (object.ID, error) {
	return r.moveBranch(branch, &expect, func(object.ID) (object.ID, error) { return next() })
}

// moveBranch reads branch's tip (zero: unborn), checks it against expect
// when expect is non-nil (ErrTipMoved, nothing written, on a mismatch),
// has next make the new tip from it and moves the ref there, all under
// tipMu.
func (r *Repository) moveBranch(branch string, expect *object.ID, next func(tip object.ID) (object.ID, error)) (object.ID, error) {
	r.tipMu.Lock()
	defer r.tipMu.Unlock()
	name := refs.BranchRef(branch)
	tip, err := r.Refs.Get(name)
	switch {
	case err == nil:
	case errors.Is(err, refs.ErrNotFound):
		tip = object.ZeroID
	default:
		return object.ZeroID, err
	}
	if expect != nil && tip != *expect {
		return object.ZeroID, fmt.Errorf("%w: %s", ErrTipMoved, branch)
	}
	id, err := next(tip)
	if err != nil {
		return object.ZeroID, err
	}
	if err := r.Refs.Set(name, id); err != nil {
		return object.ZeroID, err
	}
	return id, nil
}

// Head resolves the commit the repository's HEAD currently points at.
func (r *Repository) Head() (object.ID, error) {
	h, err := r.Refs.GetHEAD()
	if err != nil {
		return object.ZeroID, err
	}
	if h.IsDetached() {
		return h.Detached, nil
	}
	id, err := r.Refs.Get(h.Symbolic)
	if errors.Is(err, refs.ErrNotFound) {
		return object.ZeroID, fmt.Errorf("%w: %s", ErrNoCommits, refs.ShortName(h.Symbolic))
	}
	return id, err
}

// CurrentBranch returns the short name of the branch HEAD points at, or
// refs.ErrDetached when HEAD is detached.
func (r *Repository) CurrentBranch() (string, error) {
	h, err := r.Refs.GetHEAD()
	if err != nil {
		return "", err
	}
	if h.IsDetached() {
		return "", refs.ErrDetached
	}
	return refs.ShortName(h.Symbolic), nil
}

// CreateBranch points a new branch at the given commit.
func (r *Repository) CreateBranch(name string, at object.ID) error {
	ref := refs.BranchRef(name)
	if _, err := r.Refs.Get(ref); err == nil {
		return fmt.Errorf("vcs: branch %q already exists", name)
	}
	if _, err := store.GetCommit(r.Objects, at); err != nil {
		return fmt.Errorf("vcs: branch target: %w", err)
	}
	return r.Refs.Set(ref, at)
}

// Checkout makes HEAD point at the named branch (which may be unborn).
func (r *Repository) Checkout(branch string) error {
	return r.Refs.SetHEAD(refs.HEAD{Symbolic: refs.BranchRef(branch)})
}

// Branches lists short branch names in sorted order.
func (r *Repository) Branches() ([]string, error) {
	names, err := r.Refs.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if len(n) > len(refs.BranchPrefix) && n[:len(refs.BranchPrefix)] == refs.BranchPrefix {
			out = append(out, refs.ShortName(n))
		}
	}
	sort.Strings(out)
	return out, nil
}

// BranchTip resolves a branch's current commit.
func (r *Repository) BranchTip(branch string) (object.ID, error) {
	return r.Refs.Get(refs.BranchRef(branch))
}

// Commit fetches a commit object by ID.
func (r *Repository) Commit(id object.ID) (*object.Commit, error) {
	return store.GetCommit(r.Objects, id)
}

// TreeOf returns the root tree ID of a commit.
func (r *Repository) TreeOf(commitID object.ID) (object.ID, error) {
	c, err := r.Commit(commitID)
	if err != nil {
		return object.ZeroID, err
	}
	return c.TreeID, nil
}

// Log walks first-parent-last history from the given commit in reverse
// topological order (children before parents), visiting each commit once.
func (r *Repository) Log(from object.ID, fn func(id object.ID, c *object.Commit) error) error {
	seen := make(map[object.ID]bool)
	stack := []object.ID{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id.IsZero() || seen[id] {
			continue
		}
		seen[id] = true
		c, err := r.Commit(id)
		if err != nil {
			return err
		}
		if err := fn(id, c); err != nil {
			return err
		}
		// Push parents in reverse so the first parent is visited next,
		// approximating git log's first-parent bias.
		for i := len(c.Parents) - 1; i >= 0; i-- {
			stack = append(stack, c.Parents[i])
		}
	}
	return nil
}

// History returns the IDs visited by Log, in visit order.
func (r *Repository) History(from object.ID) ([]object.ID, error) {
	var out []object.ID
	err := r.Log(from, func(id object.ID, _ *object.Commit) error {
		out = append(out, id)
		return nil
	})
	return out, err
}

// IsAncestor reports whether anc is reachable from desc (a commit is its own
// ancestor).
func (r *Repository) IsAncestor(anc, desc object.ID) (bool, error) {
	found := false
	errStop := errors.New("stop")
	err := r.Log(desc, func(id object.ID, _ *object.Commit) error {
		if id == anc {
			found = true
			return errStop
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return false, err
	}
	return found, nil
}

// Fork copies the full reachable object graph of every branch from src into
// a new memory-backed repository with the same branch names, preserving all
// commit IDs (I8 in DESIGN.md). The new repository's HEAD points at src's
// current branch.
func Fork(src *Repository) (*Repository, error) {
	dst := NewMemoryRepository()
	if err := ForkInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// ForkInto copies every ref (with its full object closure) and HEAD from
// src into dst — the storage-agnostic core of Fork, used when the fork's
// backing store is chosen by the caller (e.g. a hosting platform persisting
// forks into pack storage).
func ForkInto(dst, src *Repository) error {
	names, err := src.Refs.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		id, err := src.Refs.Get(name)
		if err != nil {
			return err
		}
		if _, err := store.CopyClosure(dst.Objects, src.Objects, id); err != nil {
			return err
		}
		if err := dst.Refs.Set(name, id); err != nil {
			return err
		}
	}
	h, err := src.Refs.GetHEAD()
	if err != nil {
		return err
	}
	return dst.Refs.SetHEAD(h)
}
