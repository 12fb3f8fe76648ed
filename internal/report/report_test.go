package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

func fixture(t *testing.T) (*gitcite.Repo, object.ID) {
	t.Helper()
	repo, err := gitcite.NewMemoryRepo(gitcite.Meta{
		Owner: "alice", Name: "proj", URL: "https://x/proj",
	})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range map[string]string{
		"/src/a.go":        "a",
		"/src/b.go":        "b",
		"/vendor/ext/x.go": "x",
		"/vendor/ext/y.go": "y",
		"/README.md":       "r",
	} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/vendor/ext", core.Citation{
		Owner: "bob", RepoName: "extlib", URL: "https://x/extlib", Version: "2",
		AuthorList: []string{"Bob", "Carol"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/src/a.go", core.Citation{
		Owner: "alice", RepoName: "proj", URL: "https://x/proj/a", Version: "1",
		AuthorList: []string{"Alice"},
	}); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(vcs.CommitOptions{
		Author: vcs.Sig("alice", "a@x", time.Unix(1_600_000_000, 0)), Message: "init",
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo, commit
}

func TestBuildCounts(t *testing.T) {
	repo, commit := fixture(t)
	rep, err := Build(repo, commit)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFiles != 5 {
		t.Errorf("TotalFiles = %d, want 5 (citation.cite excluded)", rep.TotalFiles)
	}
	if rep.ExternalFiles != 2 {
		t.Errorf("ExternalFiles = %d, want 2 (the vendor files)", rep.ExternalFiles)
	}
	byPath := map[string]EntryCoverage{}
	for _, e := range rep.Entries {
		byPath[e.Path] = e
	}
	// Exclusive regions: /src/a.go (1), /vendor/ext (2), root (2: b.go + README).
	if byPath["/src/a.go"].Files != 1 {
		t.Errorf("/src/a.go covers %d", byPath["/src/a.go"].Files)
	}
	if byPath["/vendor/ext"].Files != 2 {
		t.Errorf("/vendor/ext covers %d", byPath["/vendor/ext"].Files)
	}
	if byPath["/"].Files != 2 {
		t.Errorf("/ covers %d", byPath["/"].Files)
	}
	if !byPath["/vendor/ext"].External || byPath["/src/a.go"].External || byPath["/"].External {
		t.Error("External flags wrong")
	}
	// The root entry carries the version's date, read from its commit.
	if root := byPath["/"].Citation; root.CommittedDate != time.Unix(1_600_000_000, 0).UTC() || root.Version != "" {
		t.Errorf("root entry = %+v, want the commit's date and no version", root)
	}
	// 3 of 5 files under non-root entries.
	if got := rep.CoverageFraction(); got < 0.59 || got > 0.61 {
		t.Errorf("CoverageFraction = %v, want 0.6", got)
	}
}

func TestBuildAuthorTotals(t *testing.T) {
	repo, commit := fixture(t)
	rep, err := Build(repo, commit)
	if err != nil {
		t.Fatal(err)
	}
	byAuthor := map[string]AuthorCredit{}
	for _, a := range rep.Authors {
		byAuthor[a.Author] = a
	}
	// Bob and Carol: 2 files each via 1 entry. Alice: 1 explicit + 2 root
	// files (root default lists the owner "alice" — distinct casing).
	if byAuthor["Bob"].Files != 2 || byAuthor["Carol"].Files != 2 {
		t.Errorf("external authors = %+v", rep.Authors)
	}
	if byAuthor["Alice"].Files != 1 || byAuthor["Alice"].Entries != 1 {
		t.Errorf("Alice = %+v", byAuthor["Alice"])
	}
	if byAuthor["alice"].Files != 2 {
		t.Errorf("root default author = %+v", byAuthor["alice"])
	}
	// Sorted most-credited first.
	for i := 1; i < len(rep.Authors); i++ {
		if rep.Authors[i-1].Files < rep.Authors[i].Files {
			t.Errorf("authors not sorted: %+v", rep.Authors)
		}
	}
}

func TestFprint(t *testing.T) {
	repo, commit := fixture(t)
	rep, err := Build(repo, commit)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"credit report", "E /vendor/ext", "Bob, Carol", "per-author credit", "60% under explicit"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBuildOnCiteDBShape(t *testing.T) {
	// A CiteDB-demo-shaped repository: an imported CoreCover subtree
	// (external) and a GUI subtree credited to a student are the two
	// non-root credit regions.
	repo, err := gitcite.NewMemoryRepo(gitcite.Meta{
		Owner: "Yinjun Wu", Name: "Data_citation_demo",
		URL: "https://github.com/thuwuyinjun/Data_citation_demo",
	})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("master")
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range map[string]string{
		"/citation/CiteDB.py":      "citedb",
		"/CoreCover/a.java":        "a",
		"/CoreCover/b.java":        "b",
		"/CoreCover/tests/t.java":  "t",
		"/citation/GUI/index.html": "gui",
		"/citation/GUI/app.js":     "app",
	} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/CoreCover", core.Citation{
		Owner: "Chen Li", RepoName: "alu01-corecover",
		URL:        "https://github.com/chenlica/alu01-corecover",
		AuthorList: []string{"Chen Li"}, CommitID: "5cc951e",
	}); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/citation/GUI", core.Citation{
		Owner: "Yinjun Wu", RepoName: "Data_citation_demo",
		URL:        "https://github.com/thuwuyinjun/Data_citation_demo",
		AuthorList: []string{"Yanssie"}, CommitID: "2dd6813",
	}); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(vcs.CommitOptions{
		Author: vcs.Sig("Yinjun Wu", "w@x", time.Unix(1_536_000_000, 0)), Message: "demo",
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Build(repo, commit)
	if err != nil {
		t.Fatal(err)
	}
	byAuthor := map[string]AuthorCredit{}
	for _, a := range rep.Authors {
		byAuthor[a.Author] = a
	}
	if byAuthor["Chen Li"].Files != 3 {
		t.Errorf("Chen Li = %+v", byAuthor["Chen Li"])
	}
	if byAuthor["Yanssie"].Files != 2 {
		t.Errorf("Yanssie = %+v", byAuthor["Yanssie"])
	}
	if rep.ExternalFiles != 3 {
		t.Errorf("external files = %d, want the CoreCover subtree", rep.ExternalFiles)
	}
}

func TestBuildNonEnabledVersion(t *testing.T) {
	repo, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "o", Name: "n", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := repo.VCS.CommitFiles("main", map[string]vcs.FileContent{"/f": vcs.File("x")},
		vcs.CommitOptions{Author: vcs.Sig("a", "a@x", time.Unix(1, 0)), Message: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(repo, c); err == nil {
		t.Error("report on non-enabled version succeeded")
	}
}
