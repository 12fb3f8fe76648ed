package core

import (
	"fmt"

	"github.com/gitcite/gitcite/internal/vcs"
)

// Subtree extracts the citation entries under srcRoot (inclusive) as a map
// keyed by the original paths. The subtree root always gets an entry — if it
// has no explicit citation, its resolved citation is used ("sealed"), so
// that Cite is preserved for every node when the subtree is transplanted.
// This is the behaviour the paper's running example illustrates: copying
// V3's green subtree gives its root the explicit citation C4, keeping
// Cite(f2) = C4 after the copy.
func (f *Function) Subtree(srcRoot string) (map[string]Citation, error) {
	clean, err := vcs.CleanPath(srcRoot)
	if err != nil {
		return nil, err
	}
	records, err := f.subtreeRecords(clean)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Citation, len(records))
	for p, r := range records {
		out[p] = r.cite.Clone()
	}
	return out, nil
}

// subtreeRecords is Subtree over the shared records: every entry is the
// source's own record, a sealed subtree root that of its closest cited
// ancestor.
func (f *Function) subtreeRecords(clean string) (map[string]*Record, error) {
	all := f.snapshot()
	out := map[string]*Record{}
	for p, r := range all {
		if vcs.IsAncestorPath(clean, p) {
			out[p] = r
		}
	}
	for p := clean; out[clean] == nil; p = vcs.ParentPath(p) {
		if r, ok := all[p]; ok {
			out[clean] = r
		} else if p == "/" {
			return nil, ErrRootRequired
		}
	}
	return out, nil
}

// CopyOptions configures MigrateSubtree.
type CopyOptions struct {
	// Overwrite lets migrated entries replace existing destination entries
	// at the same path. When false, a collision is an error.
	Overwrite bool
}

// MigrateSubtree implements the citation half of CopyCite (paper §3): the
// citations for srcRoot and its subtree in the source function are added to
// the destination function "with the key paths modified to reflect the new
// location". dstTree is the destination version's tree after the files have
// been copied; every migrated path must exist there.
//
// It returns the destination paths written, in sorted order.
func (dst *Function) MigrateSubtree(src *Function, srcRoot, dstRoot string, dstTree Tree, opts CopyOptions) ([]string, error) {
	srcClean, err := vcs.CleanPath(srcRoot)
	if err != nil {
		return nil, err
	}
	dstClean, err := vcs.CleanPath(dstRoot)
	if err != nil {
		return nil, err
	}
	sub, err := src.subtreeRecords(srcClean)
	if err != nil {
		return nil, err
	}

	// Validate everything before mutating, so failures leave dst unchanged.
	staged := make(map[string]*Record, len(sub))
	for p, c := range sub {
		np, err := vcs.RebasePath(p, srcClean, dstClean)
		if err != nil {
			return nil, err
		}
		if np == "/" {
			return nil, fmt.Errorf("core: CopyCite cannot target the destination root")
		}
		if !dstTree.Exists(np) {
			return nil, fmt.Errorf("%w: %q (copy the files before their citations)", ErrPathNotInTree, np)
		}
		staged[np] = c
	}
	// Collision check and write happen under one lock, so Overwrite=false
	// stays atomic against concurrent mutators of dst.
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if !opts.Overwrite {
		for np := range staged {
			if _, exists := dst.entries[np]; exists {
				return nil, fmt.Errorf("%w: %q", ErrEntryExists, np)
			}
		}
	}
	written := make([]string, 0, len(staged))
	dst.prepareWriteLocked()
	for np, c := range staged {
		dst.entries[np] = c
		written = append(written, np)
	}
	return sortedStrings(written), nil
}
