package gitcite_test

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	gitcite "github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
)

// TestPublicAPIEndToEnd walks the full public surface the way a downstream
// user would: repository → worktree → citations → commit → generate →
// render → fork → archive → retro.
func TestPublicAPIEndToEnd(t *testing.T) {
	repo, err := gitcite.NewRepository(gitcite.Meta{
		Owner: "alice", Name: "proj", URL: "https://git.example/alice/proj", License: "MIT",
	})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/lib/algo.go", []byte("package lib\n")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/lib", gitcite.Citation{
		Owner: "bob", RepoName: "algolib", URL: "https://git.example/bob/algolib", Version: "3",
		AuthorList: []string{"Bob"},
	}); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(gitcite.CommitOptions{
		Author:  gitcite.Sig("alice", "a@x", time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)),
		Message: "init",
	})
	if err != nil {
		t.Fatal(err)
	}

	cite, from, err := repo.Generate(commit, "/lib/algo.go")
	if err != nil || from != "/lib" || cite.Owner != "bob" {
		t.Fatalf("Generate = %+v from %q, %v", cite, from, err)
	}
	for _, f := range []gitcite.Format{gitcite.FormatText, gitcite.FormatBibTeX, gitcite.FormatCFF, gitcite.FormatJSON} {
		out, err := gitcite.Render(cite, f)
		if err != nil || out == "" {
			t.Errorf("Render(%s) = %q, %v", f, out, err)
		}
	}

	// Citefile codec round trip through the public API.
	fn, err := repo.FunctionAt(commit)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gitcite.EncodeCiteFile(fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := gitcite.DecodeCiteFile(data)
	if err != nil || !back.Equal(fn) {
		t.Fatalf("citefile round trip failed: %v", err)
	}

	// ForkCite.
	fork, err := gitcite.Fork(repo, gitcite.Meta{Owner: "carol", Name: "proj-fork", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	forkCite, _, err := fork.Generate(commit, "/lib")
	if err != nil || forkCite.Owner != "bob" {
		t.Fatalf("fork citation = %+v, %v", forkCite, err)
	}

	// Archive deposit + persistent citation.
	arch := gitcite.NewArchive("10.5281")
	dep, err := arch.DepositVersion(repo, commit)
	if err != nil {
		t.Fatal(err)
	}
	persistent, err := arch.CitationFor(repo, dep, "/lib")
	if err != nil || persistent.DOI == "" {
		t.Fatalf("persistent citation = %+v, %v", persistent, err)
	}

	// Retro check: the citation-enabled history is clean.
	issues, err := gitcite.CheckCitationConsistency(repo, "main")
	if err != nil || len(issues) != 0 {
		t.Fatalf("consistency = %v, %v", issues, err)
	}
}

// TestPublicAPIHosting drives the hosting platform + extension client from
// the public facade over real HTTP.
func TestPublicAPIHosting(t *testing.T) {
	platform := gitcite.NewPlatform()
	server := gitcite.NewServer(platform)
	ts := httptest.NewServer(server)
	defer ts.Close()

	anon := gitcite.NewClient(ts.URL, "")
	tok, err := anon.CreateUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("proj", "https://git.example/alice/proj", "MIT"); err != nil {
		t.Fatal(err)
	}

	local, err := gitcite.NewRepository(gitcite.Meta{Owner: "alice", Name: "proj", URL: "https://git.example/alice/proj"})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/f.go", []byte("package f\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Commit(gitcite.CommitOptions{
		Author:  gitcite.Sig("alice", "a@x", time.Unix(1_600_000_000, 0)),
		Message: "init",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Sync(local, "alice", "proj", "main"); err != nil {
		t.Fatal(err)
	}

	// Anonymous generation; member-only writes.
	cite, _, err := anon.GenCite("alice", "proj", "main", "/f.go")
	if err != nil || cite.Owner != "alice" {
		t.Fatalf("GenCite = %+v, %v", cite, err)
	}
	_, err = anon.AddCite("alice", "proj", "main", "/f.go", cite)
	if !gitcite.IsPermissionDenied(err) {
		t.Errorf("anonymous AddCite = %v", err)
	}

	// Fork through the API and clone it back.
	tok2, err := anon.CreateUser("dave")
	if err != nil {
		t.Fatal(err)
	}
	dave := anon.WithToken(tok2)
	if _, err := dave.Fork("alice", "proj", ""); err != nil {
		t.Fatal(err)
	}
	clone, err := dave.Clone("dave", "proj", "main")
	if err != nil {
		t.Fatal(err)
	}
	head, err := clone.VCS.Head()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := clone.Generate(head, "/f.go")
	if err != nil || got.Owner != "alice" {
		t.Fatalf("cloned fork citation = %+v, %v", got, err)
	}
}

// TestPublicAPIRetro exercises retroactive enablement from the facade.
func TestPublicAPIRetro(t *testing.T) {
	repo, err := gitcite.NewRepository(gitcite.Meta{Owner: "o", Name: "legacy", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	for i, author := range []string{"ana", "ben", "ana"} {
		files := map[string]gitcite.FileContent{
			"/a.txt": {Data: []byte("a")},
		}
		if i > 0 {
			files["/b/c.txt"] = gitcite.FileContent{Data: []byte("c")}
		}
		if _, err := repo.VCS.CommitFiles("main", files, gitcite.CommitOptions{
			Author:  gitcite.Sig(author, author+"@x", time.Unix(int64(i+1)*1000, 0)),
			Message: "legacy",
		}); err != nil {
			t.Fatal(err)
		}
	}
	issues, err := gitcite.CheckCitationConsistency(repo, "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 3 {
		t.Fatalf("legacy issues = %d", len(issues))
	}
	report, err := gitcite.EnableRetroactively(repo, "main", "cited", gitcite.RetroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.EntriesAdded == 0 || report.NewTip.IsZero() {
		t.Fatalf("report = %+v", report)
	}
	issues, err = gitcite.CheckCitationConsistency(repo, "cited")
	if err != nil || len(issues) != 0 {
		t.Fatalf("post-enable issues = %v, %v", issues, err)
	}
}

// TestPublicAPIMergeStrategies checks the strategy constants are wired.
func TestPublicAPIMergeStrategies(t *testing.T) {
	for _, s := range []gitcite.Strategy{
		gitcite.StrategyAsk, gitcite.StrategyOurs, gitcite.StrategyTheirs,
		gitcite.StrategyNewest, gitcite.StrategyThreeWay,
	} {
		if s.String() == "unknown" {
			t.Errorf("strategy %d unnamed", s)
		}
	}
}

// TestPublicAPIPersistence round-trips a repository through the on-disk
// format.
func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir() + "/.gitcite"
	meta := gitcite.Meta{Owner: "p", Name: "persist", URL: "u"}
	repo, err := gitcite.OpenPackedRepository(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/x.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(gitcite.CommitOptions{
		Author: gitcite.Sig("p", "p@x", time.Unix(7, 0)), Message: "persisted",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := gitcite.OpenPackedRepository(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	cite, _, err := reopened.Generate(commit, "/x.txt")
	if err != nil || cite.Owner != "p" {
		t.Fatalf("reopened Generate = %+v, %v", cite, err)
	}
}

// TestErrorStringsNamespaced spot-checks that errors crossing the public
// boundary identify their subsystem.
func TestErrorStringsNamespaced(t *testing.T) {
	_, err := gitcite.NewRepository(gitcite.Meta{})
	if err == nil || !strings.Contains(err.Error(), "gitcite:") {
		t.Errorf("meta error = %v", err)
	}
	_, err = gitcite.NewFunction(gitcite.Citation{})
	if err == nil || !strings.Contains(err.Error(), "core:") {
		t.Errorf("function error = %v", err)
	}
	var apiErr *hosting.ErrorResponse
	_ = apiErr // wire shape referenced; the client wraps it as APIError
	if gitcite.IsPermissionDenied(errors.New("random")) {
		t.Error("IsPermissionDenied on arbitrary error")
	}
}
