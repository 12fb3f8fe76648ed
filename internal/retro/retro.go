// Package retro implements the paper's second future-work item (§5):
// "since many software repositories have already been developed without
// being citation-enabled, we would like to explore ways of adding
// retroactive citations and ensuring their consistency and preservation
// through the project history."
//
// Enable rewrites a branch's history into a citation-enabled parallel
// history: every version receives a citation.cite synthesised from the
// repository metadata and a history-driven attribution analysis (which
// authors touched which subtrees). Check audits an existing branch for
// citation consistency through its history.
package retro

import (
	"fmt"
	"sort"
	"strings"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/diff"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// Options configures Enable.
type Options struct {
	// MinAuthors is the minimum number of distinct authors a directory must
	// have (differing from its parent's author set) before it earns an
	// explicit citation. Default 1.
	MinAuthors int
	// MaxDepth bounds how deep directory citations are attached; 0 means
	// no bound.
	MaxDepth int
}

func (o Options) minAuthors() int {
	if o.MinAuthors <= 0 {
		return 1
	}
	return o.MinAuthors
}

// Report summarises what Enable did.
type Report struct {
	// Rewritten maps each original commit to its citation-enabled
	// replacement.
	Rewritten map[object.ID]object.ID
	// NewTip is the rewritten branch tip.
	NewTip object.ID
	// EntriesAdded counts the explicit citation entries synthesised across
	// all versions (root entries included).
	EntriesAdded int
}

// Enable rewrites the named branch so that every version carries a
// synthesised citation.cite. The original branch is left untouched; the
// rewritten history is installed on newBranch. Versions that already carry
// a citation file keep it verbatim.
func Enable(repo *gitcite.Repo, branch, newBranch string, opts Options) (Report, error) {
	tip, err := repo.VCS.BranchTip(branch)
	if err != nil {
		return Report{}, err
	}
	order, err := topoOrder(repo, tip)
	if err != nil {
		return Report{}, err
	}

	report := Report{Rewritten: make(map[object.ID]object.ID, len(order))}
	// Citation blobs synthesised along the rewrite are batched into one
	// store write. Nothing reads their content before the flush — the tree
	// builder and attribution walk only reference them by content-derived
	// ID — and the rewritten history is unreachable until the branch ref
	// lands below, so a crash mid-rewrite leaves garbage, never a broken
	// ref.
	var pendingBlobs []store.Encoded
	// authorsByPath accumulates, per commit, the authors attributed to each
	// directory so far in history.
	authorsAt := make(map[object.ID]map[string]map[string]bool, len(order))

	for _, id := range order {
		c, err := repo.VCS.Commit(id)
		if err != nil {
			return Report{}, err
		}

		// Attribute this commit's changes against its first parent.
		var parentTree object.ID
		var inherited map[string]map[string]bool
		if len(c.Parents) > 0 {
			p, err := repo.VCS.Commit(c.Parents[0])
			if err != nil {
				return Report{}, err
			}
			parentTree = p.TreeID
			inherited = authorsAt[c.Parents[0]]
		}
		attribution := cloneAttribution(inherited)
		// Merge in secondary parents' attributions.
		if len(c.Parents) > 1 {
			for _, p := range c.Parents[1:] {
				mergeAttribution(attribution, authorsAt[p])
			}
		}
		// Attribute to this commit's author only content that differs from
		// every parent: a merge that just combines its parents' work does
		// not create authorship, but conflict resolutions and fix-ups made
		// in the merge commit itself do.
		changed, err := changedVersusAllParents(repo, c, parentTree)
		if err != nil {
			return Report{}, err
		}
		for _, p := range changed {
			attributePath(attribution, p, c.Author.Name)
		}
		authorsAt[id] = attribution

		// Build the citation function for this version.
		newTreeID := c.TreeID
		hasCite := vcs.PathExists(repo.VCS.Objects, c.TreeID, citefile.Path)
		if !hasCite {
			fn, added, err := synthesize(repo, c, attribution, opts)
			if err != nil {
				return Report{}, err
			}
			report.EntriesAdded += added
			adapter := storedTree{repo: repo, treeID: c.TreeID}
			data, err := citefile.Encode(fn, adapter.IsDir)
			if err != nil {
				return Report{}, err
			}
			enc := object.Encode(object.NewBlob(data))
			blobID := object.HashBytes(enc)
			pendingBlobs = append(pendingBlobs, store.Encoded{ID: blobID, Enc: enc})
			newTreeID, err = vcs.InsertSubtree(repo.VCS.Objects, c.TreeID, citefile.Path,
				object.TreeEntry{Name: citefile.Filename, Mode: object.ModeFile, ID: blobID})
			if err != nil {
				return Report{}, err
			}
		}

		// Remap parents into the rewritten history.
		newParents := make([]object.ID, 0, len(c.Parents))
		for _, p := range c.Parents {
			np, ok := report.Rewritten[p]
			if !ok {
				return Report{}, fmt.Errorf("retro: parent %s not rewritten before child", p.Short())
			}
			newParents = append(newParents, np)
		}
		newID, err := repo.VCS.CommitTree(newTreeID, newParents, vcs.CommitOptions{
			Author:    c.Author,
			Committer: c.Committer,
			Message:   c.Message,
		})
		if err != nil {
			return Report{}, err
		}
		report.Rewritten[id] = newID
	}

	// Land every synthesised citation blob in one batch write BEFORE the
	// branch ref makes the rewritten history reachable.
	if err := repo.VCS.Objects.PutManyEncoded(pendingBlobs); err != nil {
		return Report{}, err
	}

	report.NewTip = report.Rewritten[tip]
	if err := repo.VCS.Refs.Set(refs.BranchRef(newBranch), report.NewTip); err != nil {
		return Report{}, err
	}
	return report, nil
}

// synthesize builds a citation function for one version: the default root
// citation (repo metadata, the version's author and date) plus an explicit
// entry for each directory whose attributed author set both meets the
// MinAuthors threshold and differs from its parent directory's.
func synthesize(repo *gitcite.Repo, c *object.Commit, attribution map[string]map[string]bool, opts Options) (*core.Function, int, error) {
	// The root credits every contributor attributed so far in history,
	// falling back to this version's author for an empty attribution.
	rootAuthors := sortedAuthors(attribution["/"])
	if len(rootAuthors) == 0 {
		rootAuthors = []string{c.Author.Name}
	}
	root := repo.DefaultRootCitation(rootAuthors, c.Committer.When)
	fn, err := core.NewFunction(root)
	if err != nil {
		return nil, 0, err
	}
	added := 1

	dirs := make([]string, 0, len(attribution))
	for d := range attribution {
		if d == "/" {
			continue
		}
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	adapter := storedTree{repo: repo, treeID: c.TreeID}
	for _, d := range dirs {
		if opts.MaxDepth > 0 && len(vcs.SplitPath(d)) > opts.MaxDepth {
			continue
		}
		if !adapter.Exists(d) || !adapter.IsDir(d) {
			continue // directory no longer present in this version
		}
		authors := attribution[d]
		if len(authors) < opts.minAuthors() {
			continue
		}
		parentAuthors := attribution[vcs.ParentPath(d)]
		if sameAuthorSet(authors, parentAuthors) {
			continue
		}
		cite := core.Citation{
			RepoName:      repo.Meta.Name,
			Owner:         repo.Meta.Owner,
			URL:           repo.Meta.URL,
			CommittedDate: c.Committer.When,
			AuthorList:    sortedAuthors(authors),
			Note:          "retroactive citation (history attribution)",
		}
		if err := fn.Add(adapter, d, cite); err != nil {
			return nil, 0, err
		}
		added++
	}
	return fn, added, nil
}

// changedVersusAllParents returns the file paths added or modified in c
// relative to every one of its parents (for root commits: everything in the
// tree). The citation file is never attributed.
func changedVersusAllParents(repo *gitcite.Repo, c *object.Commit, firstParentTree object.ID) ([]string, error) {
	collect := func(parentTree object.ID) (map[string]bool, error) {
		changes, err := diff.Trees(repo.VCS.Objects, parentTree, c.TreeID, diff.Options{})
		if err != nil {
			return nil, err
		}
		set := map[string]bool{}
		for _, ch := range changes {
			if ch.Path == citefile.Path || ch.Op == diff.OpDelete {
				continue
			}
			set[ch.Path] = true
		}
		return set, nil
	}
	acc, err := collect(firstParentTree)
	if err != nil {
		return nil, err
	}
	for _, pid := range c.Parents[min(1, len(c.Parents)):] {
		p, err := repo.VCS.Commit(pid)
		if err != nil {
			return nil, err
		}
		set, err := collect(p.TreeID)
		if err != nil {
			return nil, err
		}
		for path := range acc {
			if !set[path] {
				delete(acc, path)
			}
		}
	}
	out := make([]string, 0, len(acc))
	for p := range acc {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// storedTree adapts a stored tree (minus the citation file) to core.Tree.
type storedTree struct {
	repo   *gitcite.Repo
	treeID object.ID
}

func (t storedTree) Exists(path string) bool {
	if path == citefile.Path {
		return false
	}
	return vcs.PathExists(t.repo.VCS.Objects, t.treeID, path)
}

func (t storedTree) IsDir(path string) bool {
	e, err := vcs.LookupPath(t.repo.VCS.Objects, t.treeID, path)
	return err == nil && e.IsDir()
}

func attributePath(attr map[string]map[string]bool, filePath, author string) {
	for d := vcs.ParentPath(filePath); ; d = vcs.ParentPath(d) {
		set, ok := attr[d]
		if !ok {
			set = map[string]bool{}
			attr[d] = set
		}
		set[author] = true
		if d == "/" {
			return
		}
	}
}

func cloneAttribution(in map[string]map[string]bool) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(in))
	for d, set := range in {
		cp := make(map[string]bool, len(set))
		for a := range set {
			cp[a] = true
		}
		out[d] = cp
	}
	return out
}

func mergeAttribution(dst, src map[string]map[string]bool) {
	for d, set := range src {
		cur, ok := dst[d]
		if !ok {
			cur = map[string]bool{}
			dst[d] = cur
		}
		for a := range set {
			cur[a] = true
		}
	}
}

func sameAuthorSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedAuthors(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// topoOrder returns the commits reachable from tip in parents-before-
// children order.
func topoOrder(repo *gitcite.Repo, tip object.ID) ([]object.ID, error) {
	var order []object.ID
	state := map[object.ID]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(id object.ID) error
	visit = func(id object.ID) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("retro: commit graph cycle at %s", id.Short())
		case 2:
			return nil
		}
		state[id] = 1
		c, err := repo.VCS.Commit(id)
		if err != nil {
			return err
		}
		for _, p := range c.Parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		state[id] = 2
		order = append(order, id)
		return nil
	}
	if err := visit(tip); err != nil {
		return nil, err
	}
	return order, nil
}

// Issue is one problem found by Check.
type Issue struct {
	Commit  object.ID
	Path    string
	Problem string
}

// String renders the issue for reports.
func (i Issue) String() string {
	if i.Path == "" {
		return fmt.Sprintf("%s: %s", i.Commit.Short(), i.Problem)
	}
	return fmt.Sprintf("%s: %s: %s", i.Commit.Short(), i.Path, i.Problem)
}

// Check audits every version reachable from a branch tip: each must carry a
// parseable citation.cite whose function validates against the version's
// tree (root present and complete, every entry's path existing). It returns
// the issues found, sorted by commit then path; an empty slice means the
// history is citation-consistent (the "ensuring their consistency …
// through the project history" half of the future-work item).
func Check(repo *gitcite.Repo, branch string) ([]Issue, error) {
	tip, err := repo.VCS.BranchTip(branch)
	if err != nil {
		return nil, err
	}
	var issues []Issue
	err = repo.VCS.Log(tip, func(id object.ID, c *object.Commit) error {
		if !vcs.PathExists(repo.VCS.Objects, c.TreeID, citefile.Path) {
			issues = append(issues, Issue{Commit: id, Problem: "missing citation.cite"})
			return nil
		}
		data, err := vcs.ReadFile(repo.VCS.Objects, c.TreeID, citefile.Path)
		if err != nil {
			return err
		}
		fn, err := citefile.Decode(data)
		if err != nil {
			issues = append(issues, Issue{Commit: id, Problem: "unparseable citation.cite: " + err.Error()})
			return nil
		}
		adapter := storedTree{repo: repo, treeID: c.TreeID}
		for _, pc := range fn.ActiveDomain() {
			if pc.Path == "/" {
				if err := pc.Citation.ValidateRoot(); err != nil {
					issues = append(issues, Issue{Commit: id, Path: "/", Problem: err.Error()})
				}
				continue
			}
			if !adapter.Exists(pc.Path) {
				issues = append(issues, Issue{Commit: id, Path: pc.Path, Problem: "cited path missing from version tree"})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(issues, func(i, j int) bool {
		a, b := issues[i], issues[j]
		if a.Commit != b.Commit {
			return strings.Compare(a.Commit.String(), b.Commit.String()) < 0
		}
		return a.Path < b.Path
	})
	return issues, nil
}
