// Package report aggregates citation data over one project version into
// credit reports: which contributors are credited for how much of the
// tree, which subtrees carry external citations, and how completely the
// version is citation-covered. This answers the paper's motivating question
// — "the granularity at which citations should appear to give credit to the
// appropriate contributors" — with a concrete accounting of where each
// version's credit actually goes.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// AuthorCredit totals one contributor's credited files in a version.
type AuthorCredit struct {
	Author string
	// Files is the number of files whose resolved citation lists the
	// author.
	Files int
	// Entries is the number of explicit citation entries naming the
	// author.
	Entries int
}

// EntryCoverage describes one active-domain entry and its reach.
type EntryCoverage struct {
	Path string
	// Files is the number of files this entry is the resolved citation
	// for (its exclusive region: files with no closer cited ancestor).
	Files int
	// External marks entries whose cited repository differs from the
	// version's own (imported code, e.g. a CopyCite region).
	External bool
	Citation core.Citation
}

// Report is the credit accounting of one version.
type Report struct {
	Commit object.ID
	// TotalFiles is the number of files in the version (citation.cite
	// excluded).
	TotalFiles int
	// Entries lists every active-domain entry with its exclusive file
	// count, sorted by path.
	Entries []EntryCoverage
	// Authors lists per-author totals, most-credited first.
	Authors []AuthorCredit
	// ExternalFiles is the number of files credited to external
	// repositories.
	ExternalFiles int
}

// Build computes the credit report for one version of a citation-enabled
// repository.
func Build(repo *gitcite.Repo, commit object.ID) (*Report, error) {
	// Read-only access: share the repository's cached function so repeated
	// credit reports for one version decode it once.
	fn, err := repo.ResolvedFunctionAt(commit)
	if err != nil {
		return nil, err
	}
	treeID, err := repo.VCS.TreeOf(commit)
	if err != nil {
		return nil, err
	}
	files, err := vcs.FlattenTree(repo.VCS.Objects, treeID)
	if err != nil {
		return nil, err
	}

	rep := &Report{Commit: commit}
	perEntryFiles := map[string]int{}
	authorFiles := map[string]int{}

	// Each file resolves by walking its ancestors; nothing is retained, so
	// a report leaves the shared function as it found it.
	for _, f := range files {
		if f.Path == citefile.Path {
			continue
		}
		rep.TotalFiles++
		cite, from, err := fn.Resolve(f.Path)
		if err != nil {
			return nil, err
		}
		perEntryFiles[from]++
		for _, a := range cite.AuthorList {
			authorFiles[a]++
		}
		if cite.RepoName != "" && cite.RepoName != repo.Meta.Name {
			rep.ExternalFiles++
		}
	}

	authorEntries := map[string]int{}
	for _, pc := range fn.ActiveDomain() {
		for _, a := range pc.Citation.AuthorList {
			authorEntries[a]++
		}
		rep.Entries = append(rep.Entries, EntryCoverage{
			Path:     pc.Path,
			Files:    perEntryFiles[pc.Path],
			External: pc.Citation.RepoName != "" && pc.Citation.RepoName != repo.Meta.Name,
			Citation: pc.Citation,
		})
	}
	sort.Slice(rep.Entries, func(i, j int) bool { return rep.Entries[i].Path < rep.Entries[j].Path })

	names := make([]string, 0, len(authorFiles))
	for a := range authorFiles {
		names = append(names, a)
	}
	for a := range authorEntries {
		if _, ok := authorFiles[a]; !ok {
			names = append(names, a)
		}
	}
	sort.Strings(names)
	for _, a := range names {
		rep.Authors = append(rep.Authors, AuthorCredit{Author: a, Files: authorFiles[a], Entries: authorEntries[a]})
	}
	sort.SliceStable(rep.Authors, func(i, j int) bool { return rep.Authors[i].Files > rep.Authors[j].Files })
	return rep, nil
}

// CoverageFraction is the share of files resolved by a non-root entry —
// how much of the tree carries finer-than-project credit.
func (r *Report) CoverageFraction() float64 {
	if r.TotalFiles == 0 {
		return 0
	}
	root := 0
	for _, e := range r.Entries {
		if e.Path == "/" {
			root = e.Files
		}
	}
	return float64(r.TotalFiles-root) / float64(r.TotalFiles)
}

// Fprint renders the report as a text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "credit report for version %s\n", r.Commit.Short())
	fmt.Fprintf(w, "files: %d total, %d credited to external repositories, %.0f%% under explicit non-root citations\n\n",
		r.TotalFiles, r.ExternalFiles, 100*r.CoverageFraction())
	fmt.Fprintln(w, "citation entries:")
	for _, e := range r.Entries {
		marker := " "
		if e.External {
			marker = "E"
		}
		authors := strings.Join(e.Citation.AuthorList, ", ")
		if authors == "" {
			authors = e.Citation.Owner
		}
		fmt.Fprintf(w, "  %s %-28s %4d file(s)  %s (%s)\n", marker, e.Path, e.Files, authors, e.Citation.RepoName)
	}
	fmt.Fprintln(w, "\nper-author credit:")
	for _, a := range r.Authors {
		fmt.Fprintf(w, "  %-24s %4d file(s) via %d entr%s\n", a.Author, a.Files, a.Entries, plural(a.Entries, "y", "ies"))
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
