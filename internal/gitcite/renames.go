package gitcite

import (
	"sort"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/diff"
)

// RenameDetection configures SyncRenames.
type RenameDetection struct {
	// MinSimilarity is the content-similarity threshold in [0,1] for
	// pairing a deleted file with an added one when contents are not
	// identical; 0 pairs exact content matches only.
	MinSimilarity float64
}

// DetectedRename records one rename SyncRenames applied to the citation
// function.
type DetectedRename struct {
	OldPath string
	NewPath string
}

// SyncRenames reconciles the citation function with file moves performed
// outside Move — for example a user renaming files on disk before the CLI
// reloads the worktree. It diffs the base version's tree against the
// current working files with rename detection and rekeys the citation
// entries of every detected rename (paper §2: the citation function must
// be updated when a cited file or directory is moved or renamed). Without
// this step the stale entries would simply be pruned at commit, losing the
// attached citations.
//
// Only renames whose old path (or an ancestor of it) is in the active
// domain have any effect. Returns the renames applied, sorted by old path.
func (wt *Worktree) SyncRenames(opts RenameDetection) ([]DetectedRename, error) {
	if wt.base.IsZero() {
		return nil, nil // unborn branch: nothing to compare against
	}
	baseTree, err := wt.repo.VCS.TreeOf(wt.base)
	if err != nil {
		return nil, err
	}
	baseTree, err = vcs.BuildTreeDelta(wt.repo.VCS.Objects, baseTree, nil, []string{citefile.Path})
	if err != nil {
		return nil, err
	}
	workTree, err := wt.buildFileTree()
	if err != nil {
		return nil, err
	}
	changes, err := diff.Trees(wt.repo.VCS.Objects, baseTree, workTree, diff.Options{
		DetectRenames:    true,
		RenameSimilarity: opts.MinSimilarity,
	})
	if err != nil {
		return nil, err
	}
	var applied []DetectedRename
	for _, ch := range changes {
		if ch.Op != diff.OpRename || ch.OldPath == citefile.Path || ch.Path == citefile.Path {
			continue
		}
		// Rekey only when the move would actually rekey an entry: Rename is
		// a no-op otherwise, and recording it would be noise.
		touches := false
		for _, p := range wt.fn.Paths() {
			if p != "/" && vcs.IsAncestorPath(ch.OldPath, p) {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		if err := wt.fn.Rename(ch.OldPath, ch.Path); err != nil {
			return nil, err
		}
		applied = append(applied, DetectedRename{OldPath: ch.OldPath, NewPath: ch.Path})
	}
	sort.Slice(applied, func(i, j int) bool { return applied[i].OldPath < applied[j].OldPath })
	return applied, nil
}
