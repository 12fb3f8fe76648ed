package gitcite

import (
	"errors"
	"fmt"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/merge"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// MergeOptions configures MergeBranches.
type MergeOptions struct {
	// Files settles file-level conflicts; see merge.Options.
	Files merge.Options
	// Citations settles citation-key conflicts; see core.MergeOptions. Its
	// Base field is filled automatically from the merge-base version when
	// nil and a base exists.
	Citations core.MergeOptions
	// Author/Message for the merge commit.
	Commit vcs.CommitOptions
}

// MergeResult reports what MergeBranches produced.
type MergeResult struct {
	CommitID object.ID
	// FastForward is set when no merge commit was needed.
	FastForward bool
	// FileConflicts are the file-level conflicts encountered (settled by
	// the file resolver).
	FileConflicts []merge.Conflict
	// CiteConflicts are the citation-key conflicts encountered.
	CiteConflicts []core.MergeConflict
	// PrunedCitations lists citation entries dropped because the file merge
	// deleted their paths.
	PrunedCitations []string
}

// MergeBranches implements MergeCite (paper §3): it merges srcBranch into
// dstBranch. Regular files merge under Git-style three-way rules; the
// citation files are NOT merged textually ("we do not use them on
// citation.cite since it could leave the citation function inconsistent") —
// instead the two citation functions are merged by union, entries for
// merge-deleted files are dropped, and key conflicts go to the configured
// strategy.
func (r *Repo) MergeBranches(dstBranch, srcBranch string, opts MergeOptions) (MergeResult, error) {
	dstTip, err := r.VCS.BranchTip(dstBranch)
	if err != nil {
		return MergeResult{}, fmt.Errorf("gitcite: merge destination: %w", err)
	}
	srcTip, err := r.VCS.BranchTip(srcBranch)
	if err != nil {
		return MergeResult{}, fmt.Errorf("gitcite: merge source: %w", err)
	}

	baseID, err := r.VCS.MergeBase(dstTip, srcTip)
	if err != nil {
		return MergeResult{}, err
	}

	// Fast-forward cases: nothing to merge.
	if baseID == srcTip {
		return MergeResult{CommitID: dstTip, FastForward: true}, nil
	}
	if baseID == dstTip {
		if err := r.VCS.Refs.Set("refs/heads/"+dstBranch, srcTip); err != nil {
			return MergeResult{}, err
		}
		return MergeResult{CommitID: srcTip, FastForward: true}, nil
	}

	dstTree, err := r.VCS.TreeOf(dstTip)
	if err != nil {
		return MergeResult{}, err
	}
	srcTree, err := r.VCS.TreeOf(srcTip)
	if err != nil {
		return MergeResult{}, err
	}
	baseTree := object.ZeroID
	if !baseID.IsZero() {
		baseTree, err = r.VCS.TreeOf(baseID)
		if err != nil {
			return MergeResult{}, err
		}
	}

	// File-level three-way merge. The paper is explicit that Git's conflict
	// rules must not touch the citation file: its entry is settled as ours
	// without consulting the caller's resolver, hidden from the merged
	// tree's view below, and replaced by the merged function's encoding.
	files := opts.Files
	files.Resolver = func(c merge.Conflict) merge.Resolution {
		if c.Path != citefile.Path && opts.Files.Resolver != nil {
			return opts.Files.Resolver(c)
		}
		return merge.ResolveOurs
	}
	fileRes, err := merge.Trees(r.VCS.Objects, baseTree, dstTree, srcTree, files)
	if err != nil {
		return MergeResult{}, err
	}
	conflicts := fileRes.Conflicts[:0]
	for _, c := range fileRes.Conflicts {
		if c.Path != citefile.Path {
			conflicts = append(conflicts, c)
		}
	}

	// Citation-function merge over the merged tree.
	ours, err := r.FunctionAt(dstTip)
	if err != nil {
		return MergeResult{}, err
	}
	theirs, err := r.FunctionAt(srcTip)
	if err != nil {
		return MergeResult{}, err
	}
	// The root citation's date is auto-managed version metadata (stamped on
	// every commit), so two branches always disagree on it; normalise both
	// sides to the merge commit's date before conflict detection. Real root
	// differences (owner, repo name, authors, …) still conflict.
	normalizeRootDate(ours, opts.Commit)
	normalizeRootDate(theirs, opts.Commit)
	citeOpts := opts.Citations
	if citeOpts.Base != nil {
		normalizeRootDate(citeOpts.Base, opts.Commit)
	}
	if citeOpts.Base == nil && !baseID.IsZero() {
		// A base without citations merges as no base; a base the store
		// cannot read fails the merge.
		baseFn, err := r.functionOf(baseTree)
		switch {
		case errors.Is(err, ErrNotCitationEnabled):
		case err != nil:
			return MergeResult{}, err
		default:
			baseFn = baseFn.Clone()
			normalizeRootDate(baseFn, opts.Commit)
			citeOpts.Base = baseFn
		}
	}
	mergedTree := treeAdapter{objects: r.VCS.Objects, treeID: fileRes.TreeID}
	citeRes, err := core.Merge(ours, theirs, mergedTree, citeOpts)
	if err != nil {
		return MergeResult{}, err
	}

	// Write the merged citation file into the merged tree and commit with
	// both parents. Encoding reuses the bytes both sides memoised on the
	// records they passed on; only settled conflicts and the re-dated root
	// are marshalled.
	data, err := citefile.Encode(citeRes.Function, mergedTree.IsDir)
	if err != nil {
		return MergeResult{}, err
	}
	finalTree, err := vcs.BuildTreeDelta(r.VCS.Objects, fileRes.TreeID, map[string]vcs.TreeEdit{citefile.Path: {Data: data}}, nil)
	if err != nil {
		return MergeResult{}, err
	}
	commitID, err := r.VCS.CommitTree(finalTree, []object.ID{dstTip, srcTip}, opts.Commit)
	if err != nil {
		return MergeResult{}, err
	}
	if err := r.VCS.Refs.Set("refs/heads/"+dstBranch, commitID); err != nil {
		return MergeResult{}, err
	}
	// Seed the read cache as Worktree.Commit does: the merge commit's first
	// reader finds what decoding the stored file would give it.
	if canon, ok := citefile.Canonical(citeRes.Function); ok {
		r.functionCache().seed(finalTree, canon)
	}
	return MergeResult{
		CommitID:        commitID,
		FileConflicts:   conflicts,
		CiteConflicts:   citeRes.Conflicts,
		PrunedCitations: citeRes.Pruned,
	}, nil
}

// CopyCite copies the directory (or file) at srcPath in a source repository
// version into this worktree at dstPath, migrating the associated citations
// (paper §3): the source subtree's citation entries are added to the working
// citation function with rebased keys, and the subtree root is sealed with
// its resolved citation so Cite is preserved for every copied node.
func (wt *Worktree) CopyCite(src *Repo, srcCommit object.ID, srcPath, dstPath string) error {
	srcClean, err := vcs.CleanPath(srcPath)
	if err != nil {
		return err
	}
	dstClean, err := vcs.CleanPath(dstPath)
	if err != nil {
		return err
	}
	if srcClean == citefile.Path || dstClean == citefile.Path {
		return fmt.Errorf("gitcite: cannot copy the citation file itself")
	}
	srcTreeID, err := src.VCS.TreeOf(srcCommit)
	if err != nil {
		return err
	}
	entry, err := vcs.LookupPath(src.VCS.Objects, srcTreeID, srcClean)
	if err != nil {
		return fmt.Errorf("gitcite: copy source: %w", err)
	}

	// Copy the files first.
	if entry.IsDir() {
		files, err := vcs.FlattenTree(src.VCS.Objects, entry.ID)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("gitcite: copy source %q is empty", srcClean)
		}
		for _, f := range files {
			if f.Path == citefile.Path {
				continue
			}
			blob, err := store.GetBlob(src.VCS.Objects, f.BlobID)
			if err != nil {
				return err
			}
			np, err := vcs.RebasePath(f.Path, "/", dstClean)
			if err != nil {
				return err
			}
			if err := wt.WriteFile(np, blob.Data()); err != nil {
				return err
			}
		}
	} else {
		blob, err := store.GetBlob(src.VCS.Objects, entry.ID)
		if err != nil {
			return err
		}
		if err := wt.WriteFile(dstClean, blob.Data()); err != nil {
			return err
		}
	}

	// Then migrate the citations.
	srcFn, err := src.FunctionAt(srcCommit)
	if err != nil {
		return err
	}
	_, err = wt.fn.MigrateSubtree(srcFn, srcClean, dstClean, wt.Tree(), core.CopyOptions{Overwrite: true})
	return err
}

// normalizeRootDate rewrites a function's root citation date to the merge
// commit's time, to the second as Worktree.stampRoot does; see
// MergeBranches. A zero commit time leaves the function untouched.
func normalizeRootDate(fn *core.Function, opts vcs.CommitOptions) {
	when := opts.Committer.When
	if when.IsZero() {
		when = opts.Author.When
	}
	if when.IsZero() {
		return
	}
	root := fn.Root()
	root.CommittedDate = when.UTC().Truncate(time.Second)
	_ = fn.Modify("/", root)
}
