package gitcite

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// workFile is one file of the working copy. Unmodified files checked out
// from the base version stay as a (blobID, mode) reference into the object
// store and are loaded only when read; written files carry their bytes
// directly. Committing a reference costs no blob re-encode or re-hash.
type workFile struct {
	mode   object.Mode
	blobID object.ID // non-zero: content lives in the store (lazy)
	data   []byte    // authoritative when blobID is zero
}

// Worktree is a mutable working copy of one branch: the project's files plus
// the version-in-progress citation function. File edits and citation edits
// accumulate independently (paper §2: "Modifications to files/directories
// and to their associated citations are independent") until Commit writes
// both — the files and the regenerated citation.cite — as one new version.
//
// The worktree is change-tracking: it records which paths were written,
// moved or removed since checkout, and Commit hands only that delta (plus
// the base version's tree) to the incremental tree builder, so commit cost
// is proportional to the change, not the repository.
type Worktree struct {
	repo   *Repo
	branch string
	base   object.ID // commit checked out; zero for an unborn branch
	// baseTree is base's root tree, the diff target for incremental
	// commits; zero for an unborn branch.
	baseTree object.ID
	files    map[string]*workFile
	// dirty marks paths created or modified since checkout; removed marks
	// paths deleted (or moved away) that the base tree may still hold.
	dirty   map[string]bool
	removed map[string]bool
	fn      *core.Function
	// baseFn is the function base stores, shared with the repository's
	// function cache; nil when base has no citation.cite (or is unborn).
	// While fn still shares its entry map, no citation has changed.
	baseFn *core.Function

	// gen counts changes to the set of working paths (creations, removals,
	// moves — not rewrites of an existing file); dirIndex/dirIndexGen
	// memoise the directory-set index the commit-time tree view queries.
	gen         uint64
	dirIndex    map[string]bool
	dirIndexGen uint64
}

// Checkout loads a worktree for the named branch. An unborn branch yields an
// empty worktree whose citation function has the repository's default root
// citation. Versions without a citation.cite are citation-enabled on the
// fly with the default root (see also the retro package for history-aware
// enabling).
//
// Checkout does not materialise file contents: every file of the base
// version is held as a blob reference and loaded from the object store
// only if read.
func (r *Repo) Checkout(branch string) (*Worktree, error) {
	wt := &Worktree{
		repo:    r,
		branch:  branch,
		files:   map[string]*workFile{},
		dirty:   map[string]bool{},
		removed: map[string]bool{},
	}
	tip, err := r.VCS.BranchTip(branch)
	switch {
	case errors.Is(err, refs.ErrNotFound):
		fn, err := core.NewFunction(r.DefaultRootCitation(nil, time.Time{}))
		if err != nil {
			return nil, err
		}
		wt.fn = fn
		return wt, nil
	case err != nil:
		return nil, err
	}
	wt.base = tip
	treeID, err := r.VCS.TreeOf(tip)
	if err != nil {
		return nil, err
	}
	wt.baseTree = treeID
	// One walk fills the working files and the directory index dirs()
	// would otherwise rebuild from them on the first tree query.
	dirs := map[string]bool{"/": true}
	err = vcs.WalkTree(r.VCS.Objects, treeID, func(p string, e object.TreeEntry) error {
		if e.IsDir() || p == citefile.Path {
			return nil
		}
		wt.files[p] = &workFile{mode: e.Mode, blobID: e.ID}
		indexDirs(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	wt.dirIndex = dirs

	fn, err := r.functionOf(treeID)
	switch {
	case errors.Is(err, ErrNotCitationEnabled):
		wt.fn, err = core.NewFunction(r.DefaultRootCitation(nil, time.Time{}))
	case err == nil:
		wt.baseFn, wt.fn = fn, fn.Clone()
	}
	if err != nil {
		return nil, err
	}
	return wt, nil
}

// Branch returns the branch the worktree tracks.
func (wt *Worktree) Branch() string { return wt.branch }

// Base returns the commit the worktree was checked out from (zero for an
// unborn branch).
func (wt *Worktree) Base() object.ID { return wt.base }

// Function returns the working citation function (live reference: citation
// operations mutate it and Commit snapshots it).
func (wt *Worktree) Function() *core.Function { return wt.fn }

// Tree returns a core.Tree view of the working files.
func (wt *Worktree) Tree() core.Tree { return worktreeTree{wt} }

// dirs returns the set of every directory implied by the working files
// (always including "/"), built once per file-set generation. Pre-commit
// validation and pruning issue one Exists/IsDir query per cited path, so
// the view must answer in O(1) rather than scanning all files per query.
func (wt *Worktree) dirs() map[string]bool {
	if wt.dirIndex != nil && wt.dirIndexGen == wt.gen {
		return wt.dirIndex
	}
	dirs := map[string]bool{"/": true}
	for p := range wt.files {
		indexDirs(dirs, p)
	}
	wt.dirIndex, wt.dirIndexGen = dirs, wt.gen
	return dirs
}

// indexDirs adds every directory above path to dirs, which holds "/" and
// each directory above any path added before.
func indexDirs(dirs map[string]bool, path string) {
	for d := vcs.ParentPath(path); !dirs[d]; d = vcs.ParentPath(d) {
		dirs[d] = true
	}
}

type worktreeTree struct{ wt *Worktree }

func (t worktreeTree) Exists(path string) bool {
	if _, ok := t.wt.files[path]; ok {
		return true
	}
	return t.wt.dirs()[path]
}

func (t worktreeTree) IsDir(path string) bool {
	if _, ok := t.wt.files[path]; ok {
		return false
	}
	return t.wt.dirs()[path]
}

// Paths returns the working file paths in sorted order (citation.cite
// excluded).
func (wt *Worktree) Paths() []string {
	out := make([]string, 0, len(wt.files))
	for p := range wt.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// markWritten records a path as created/modified since checkout. created
// says the path was not a working file before: only then can the directory
// set have changed.
func (wt *Worktree) markWritten(path string, created bool) {
	wt.dirty[path] = true
	delete(wt.removed, path)
	if created {
		wt.gen++
	}
}

// markRemoved records a path as deleted since checkout.
func (wt *Worktree) markRemoved(path string) {
	delete(wt.dirty, path)
	wt.removed[path] = true
	wt.gen++
}

// WriteFile creates or replaces a file in the working copy.
func (wt *Worktree) WriteFile(path string, data []byte) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if clean == citefile.Path {
		return fmt.Errorf("gitcite: %s is system-managed and cannot be edited directly", citefile.Filename)
	}
	_, existed := wt.files[clean]
	wt.files[clean] = &workFile{data: append([]byte(nil), data...)}
	wt.markWritten(clean, !existed)
	return nil
}

// RemoveFile deletes a file; its explicit citation entry (if any) is
// removed at Commit time by pruning, mirroring the paper's side-effect
// semantics.
func (wt *Worktree) RemoveFile(path string) error {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return err
	}
	if _, ok := wt.files[clean]; !ok {
		return fmt.Errorf("gitcite: %q: no such file", clean)
	}
	delete(wt.files, clean)
	wt.markRemoved(clean)
	return nil
}

// Move renames a file or directory and immediately rekeys the affected
// citation entries (paper §2: a moved/renamed path in the active domain
// forces a citation-function update). Unloaded files move as blob
// references: only their paths re-hash at commit, never their contents.
func (wt *Worktree) Move(oldPath, newPath string) error {
	oldClean, err := vcs.CleanPath(oldPath)
	if err != nil {
		return err
	}
	newClean, err := vcs.CleanPath(newPath)
	if err != nil {
		return err
	}
	if oldClean == "/" || newClean == "/" {
		return fmt.Errorf("gitcite: cannot move the root")
	}
	if newClean == citefile.Path {
		return fmt.Errorf("gitcite: %s is system-managed and cannot be a move target", citefile.Filename)
	}
	var moved []string
	for p := range wt.files {
		if vcs.IsAncestorPath(oldClean, p) {
			moved = append(moved, p)
		}
	}
	if len(moved) == 0 {
		return fmt.Errorf("gitcite: %q: no such file or directory", oldClean)
	}
	for _, p := range moved {
		np, err := vcs.RebasePath(p, oldClean, newClean)
		if err != nil {
			return err
		}
		if np == citefile.Path {
			return fmt.Errorf("gitcite: %s is system-managed and cannot be a move target", citefile.Filename)
		}
		if _, clash := wt.files[np]; clash {
			return fmt.Errorf("gitcite: move target %q already exists", np)
		}
		wt.files[np] = wt.files[p]
		delete(wt.files, p)
		wt.markRemoved(p)
		wt.markWritten(np, true)
	}
	return wt.fn.Rename(oldClean, newClean)
}

// ReadFile returns a working file's contents, loading unmodified files
// from the object store on demand.
func (wt *Worktree) ReadFile(path string) ([]byte, error) {
	clean, err := vcs.CleanPath(path)
	if err != nil {
		return nil, err
	}
	f, ok := wt.files[clean]
	if !ok {
		return nil, fmt.Errorf("gitcite: %q: no such file", clean)
	}
	if f.blobID.IsZero() {
		return append([]byte(nil), f.data...), nil
	}
	blob, err := store.GetBlob(wt.repo.VCS.Objects, f.blobID)
	if err != nil {
		return nil, err
	}
	// Copy out: the blob's backing slice is shared with the repository's
	// object cache, and callers may mutate what we return.
	return append([]byte(nil), blob.Data()...), nil
}

// AddCite attaches a citation to a working path (paper operator AddCite).
func (wt *Worktree) AddCite(path string, c core.Citation) error {
	return wt.fn.Add(wt.Tree(), path, c)
}

// DelCite removes a path's explicit citation (paper operator DelCite).
func (wt *Worktree) DelCite(path string) error { return wt.fn.Delete(path) }

// ModifyCite replaces a path's explicit citation (paper operator
// ModifyCite).
func (wt *Worktree) ModifyCite(path string, c core.Citation) error {
	return wt.fn.Modify(path, c)
}

// GenCite resolves the citation for a working path (closest-ancestor
// semantics), also reporting which active-domain path supplied it. Like
// core.Function.Resolve, the returned citation's AuthorList and Extra
// share storage with the working function — treat them as read-only, or
// Clone the citation before mutating them.
func (wt *Worktree) GenCite(path string) (core.Citation, string, error) {
	return wt.fn.Resolve(path)
}

// SetRootCitation replaces the version's default root citation.
func (wt *Worktree) SetRootCitation(c core.Citation) error {
	return wt.fn.Modify("/", c)
}

// delta returns the accumulated file changes since checkout in the form
// BuildTreeDelta consumes. Dirty files that were never loaded contribute
// their blob reference, so no content re-hashes.
func (wt *Worktree) delta() (edits map[string]vcs.TreeEdit, removed []string) {
	edits = make(map[string]vcs.TreeEdit, len(wt.dirty)+1)
	for p := range wt.dirty {
		f := wt.files[p]
		edits[p] = vcs.TreeEdit{Data: f.data, BlobID: f.blobID, Mode: f.mode}
	}
	removed = make([]string, 0, len(wt.removed))
	for p := range wt.removed {
		removed = append(removed, p)
	}
	return edits, removed
}

// buildFileTree writes the current working files (without citation.cite)
// as a tree, incrementally against the base version's tree.
func (wt *Worktree) buildFileTree() (object.ID, error) {
	edits, removed := wt.delta()
	// The base tree carries the base version's citation.cite; the working
	// file set never does.
	removed = append(removed, citefile.Path)
	return vcs.BuildTreeDelta(wt.repo.VCS.Objects, wt.baseTree, edits, removed)
}

// ErrStaleWorktree reports a Commit from a worktree whose branch moved since
// it was checked out (or last committed): the new version would be built
// from the old tip's files and citations yet name the new tip as its parent,
// silently discarding whatever the versions in between changed. Check the
// branch out again and redo the edits.
var ErrStaleWorktree = errors.New("gitcite: worktree is stale: its branch moved since checkout")

// Commit writes the working files plus the regenerated citation.cite as a
// new version on the worktree's branch and re-bases the worktree onto it.
// Before writing, entries for deleted paths are pruned, the root's date is
// left to the commit (see undateRoot) and the function is validated against
// the new tree, so every committed version satisfies the model invariants.
// The branch must still be at the version the worktree sits on; otherwise
// Commit fails with ErrStaleWorktree.
//
// Cost follows the change, not the repository. The new tree is built
// incrementally: only the paths touched since checkout (plus citation.cite,
// if it changed) re-hash, and subtrees the delta does not reach reuse the
// base version's stored trees verbatim. A commit that changed no citation
// keeps the base version's citation.cite (see keepsCiteFile) and prunes,
// validates and encodes nothing. Otherwise the citation file is assembled
// from per-entry bytes memoised on the function's records: only entries
// edited since the last version are marshalled.
func (wt *Worktree) Commit(opts vcs.CommitOptions) (object.ID, error) {
	edits, removed := wt.delta()
	keep := wt.keepsCiteFile()
	if !keep {
		wt.fn.Prune(wt.Tree())
		undateRoot(wt.fn)
		if err := wt.fn.Validate(wt.Tree()); err != nil {
			return object.ZeroID, fmt.Errorf("gitcite: pre-commit validation: %w", err)
		}
		data, err := citefile.Encode(wt.fn, wt.Tree().IsDir)
		if err != nil {
			return object.ZeroID, err
		}
		edits[citefile.Path] = vcs.TreeEdit{Data: data}
	}

	newTree, err := vcs.BuildTreeDelta(wt.repo.VCS.Objects, wt.baseTree, edits, removed)
	if err != nil {
		return object.ZeroID, err
	}
	id, err := wt.repo.VCS.CommitTreeOnTip(wt.branch, wt.base, newTree, opts)
	if errors.Is(err, vcs.ErrTipMoved) {
		return object.ZeroID, fmt.Errorf("%w (%s)", ErrStaleWorktree, wt.branch)
	}
	if err != nil {
		return object.ZeroID, err
	}
	wt.base = id
	wt.baseTree = newTree
	wt.dirty = map[string]bool{}
	wt.removed = map[string]bool{}
	// Seed the repository's read cache, under the tree just built, with
	// exactly what a cold load would decode from the stored file. A kept
	// file is the base version's, and so is its function. A new one is
	// made of the records Encode just memoised, with no decoding (the
	// encoding normalises dates; the live wt.fn may hold sub-second
	// precision the file cannot express), and the working function is
	// re-based onto it, so the worktree reads as the version it now sits
	// on and shares its storage. A file that would not decode only skips
	// the seeding — readers fall back to loading on demand.
	if !keep {
		wt.baseFn = nil
		if canon, ok := citefile.Canonical(wt.fn); ok {
			wt.fn.Assign(canon)
			wt.baseFn = canon
		}
	}
	if wt.baseFn != nil {
		wt.repo.functionCache().seed(newTree, wt.baseFn)
	}
	return id, nil
}

// keepsCiteFile reports whether the version being committed has exactly the
// citations of the base version, whose citation.cite it can then keep: the
// working function still shares the entry map of the function base stores,
// so no operator has written to it; no path was removed, so no entry needs
// pruning and no cited path changed kind (a tree cannot hold a path as a
// file and a directory at once, so a flip needs a removal), which would
// change its key; and base's root is already in the form Commit writes.
func (wt *Worktree) keepsCiteFile() bool {
	if wt.baseFn == nil || len(wt.removed) > 0 || !wt.fn.SharesEntries(wt.baseFn) {
		return false
	}
	root := wt.baseFn.Root()
	return !undate(&root)
}

// undateRoot leaves a function's root date to the commit: it strips the
// date, which readers fill in from the version's commit (DateRoot), so a
// version's citation.cite changes only when its citations do. A root left
// with neither a version nor a date is marked UnreleasedVersion, as a
// working copy's is, which keeps it valid.
func undateRoot(fn *core.Function) {
	root := fn.Root()
	if undate(&root) {
		// Modify cannot fail here: the root exists, and it stays valid (it
		// keeps a version). Ignore the error defensively all the same.
		_ = fn.Modify("/", root)
	}
}

// undate applies undateRoot's rule to a root citation, reporting whether
// that changed it.
func undate(root *core.Citation) bool {
	changed := !root.CommittedDate.IsZero()
	root.CommittedDate = time.Time{}
	if root.Version == "" {
		root.Version = UnreleasedVersion
		changed = true
	}
	return changed
}
