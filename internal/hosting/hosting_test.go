package hosting_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
)

// fixture spins up a platform + HTTP server + an owner account with one
// repository containing one commit.
type fixture struct {
	platform *hosting.Platform
	server   *httptest.Server
	owner    *extension.Client // authenticated as the repo owner
	anon     *extension.Client // unauthenticated
	ownerTok string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p := hosting.NewPlatform()
	srv := hosting.NewServer(p)
	// Deterministic clock for server-side commits.
	base := time.Date(2018, 9, 4, 2, 35, 20, 0, time.UTC)
	step := 0
	srv.Now = func() time.Time {
		step++
		return base.Add(time.Duration(step) * time.Minute)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("leshang")
	if err != nil {
		t.Fatal(err)
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("P1", "https://git.example/leshang/P1", "MIT"); err != nil {
		t.Fatal(err)
	}

	// Seed one commit through a local repo + push.
	local, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "leshang", Name: "P1", URL: "https://git.example/leshang/P1"})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	for p, d := range map[string]string{
		"/src/main.py":          "print('hi')\n",
		"/src/util.py":          "def u(): pass\n",
		"/docs/README.md":       "# P1\n",
		"/CoreCover/rewrite.py": "rewrite\n",
	} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/CoreCover", core.Citation{
		Owner: "Chen Li", RepoName: "alu01-corecover",
		URL: "https://github.com/chenlica/alu01-corecover", CommitID: "5cc951e",
		AuthorList: []string{"Chen Li"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("leshang", "l@upenn.edu", base),
		Message: "initial",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Sync(local, "leshang", "P1", "main"); err != nil {
		t.Fatal(err)
	}
	return &fixture{platform: p, server: ts, owner: owner, anon: anon, ownerTok: tok}
}

func TestAnyoneCanGenerateCitations(t *testing.T) {
	fx := newFixture(t)
	// Uncited file resolves to the root default.
	cite, from, err := fx.anon.GenCite("leshang", "P1", "main", "/src/main.py")
	if err != nil {
		t.Fatal(err)
	}
	if from != "/" || cite.Owner != "leshang" || cite.RepoName != "P1" {
		t.Errorf("GenCite = %+v from %q", cite, from)
	}
	// Root generation fills in version info (commit id + date).
	if cite.CommitID == "" || cite.CommittedDate.IsZero() {
		t.Errorf("generated citation lacks version info: %+v", cite)
	}
	// Cited directory resolves to its own citation.
	cite, from, err = fx.anon.GenCite("leshang", "P1", "main", "/CoreCover/rewrite.py")
	if err != nil {
		t.Fatal(err)
	}
	if from != "/CoreCover" || cite.Owner != "Chen Li" {
		t.Errorf("GenCite CoreCover = %+v from %q", cite, from)
	}
	// Rendered formats round-trip over HTTP.
	text, err := fx.anon.GenCiteRendered("leshang", "P1", "main", "/CoreCover", "bibtex")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "@software{") || !strings.Contains(text, "Chen Li") {
		t.Errorf("rendered = %q", text)
	}
}

func TestNonMembersCannotEditCitations(t *testing.T) {
	fx := newFixture(t)
	cite := core.Citation{Owner: "x", RepoName: "y", URL: "u", Version: "1"}

	// Anonymous: 401.
	_, err := fx.anon.AddCite("leshang", "P1", "main", "/src", cite)
	if !extension.IsPermissionDenied(err) {
		t.Errorf("anon AddCite = %v", err)
	}
	// Authenticated non-member: 403 for add/modify/delete.
	tok, err := fx.anon.CreateUser("stranger")
	if err != nil {
		t.Fatal(err)
	}
	stranger := fx.anon.WithToken(tok)
	if _, err := stranger.AddCite("leshang", "P1", "main", "/src", cite); !extension.IsPermissionDenied(err) {
		t.Errorf("stranger AddCite = %v", err)
	}
	if _, err := stranger.ModifyCite("leshang", "P1", "main", "/CoreCover", cite); !extension.IsPermissionDenied(err) {
		t.Errorf("stranger ModifyCite = %v", err)
	}
	if _, err := stranger.DelCite("leshang", "P1", "main", "/CoreCover"); !extension.IsPermissionDenied(err) {
		t.Errorf("stranger DelCite = %v", err)
	}
	// But they can still generate (Figure 2's non-member flow).
	if _, _, err := stranger.GenCite("leshang", "P1", "main", "/src"); err != nil {
		t.Errorf("stranger GenCite = %v", err)
	}
}

func TestMemberEditFlow(t *testing.T) {
	fx := newFixture(t)
	// Owner invites a member.
	tok, err := fx.anon.CreateUser("susan")
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.owner.AddMember("leshang", "P1", "susan"); err != nil {
		t.Fatal(err)
	}
	susan := fx.anon.WithToken(tok)

	// AddCite commits a new version server-side.
	cite := core.Citation{Owner: "susan", RepoName: "docs", URL: "https://x/docs", Version: "1", AuthorList: []string{"Susan B. Davidson"}}
	commit1, err := susan.AddCite("leshang", "P1", "main", "/docs", cite)
	if err != nil {
		t.Fatal(err)
	}
	if commit1 == "" {
		t.Fatal("no commit returned")
	}
	got, from, err := fx.anon.GenCite("leshang", "P1", "main", "/docs/README.md")
	if err != nil || from != "/docs" || got.Owner != "susan" {
		t.Errorf("after AddCite: %+v from %q, %v", got, from, err)
	}

	// ModifyCite.
	cite.Version = "2"
	commit2, err := susan.ModifyCite("leshang", "P1", "main", "/docs", cite)
	if err != nil {
		t.Fatal(err)
	}
	if commit2 == commit1 {
		t.Error("modify did not create a new version")
	}
	got, _, _ = fx.anon.GenCite("leshang", "P1", "main", "/docs")
	if got.Version != "2" {
		t.Errorf("after ModifyCite: %+v", got)
	}

	// DelCite.
	if _, err := susan.DelCite("leshang", "P1", "main", "/docs"); err != nil {
		t.Fatal(err)
	}
	_, from, err = fx.anon.GenCite("leshang", "P1", "main", "/docs/README.md")
	if err != nil || from != "/" {
		t.Errorf("after DelCite: from %q, %v", from, err)
	}

	// Duplicate AddCite → 409.
	if _, err := susan.AddCite("leshang", "P1", "main", "/CoreCover", cite); err == nil {
		t.Error("duplicate AddCite accepted")
	}
	// AddCite to a missing path → 400.
	if _, err := susan.AddCite("leshang", "P1", "main", "/nope", cite); err == nil || extension.IsPermissionDenied(err) {
		t.Errorf("AddCite missing path = %v", err)
	}
	// Only the owner can add members.
	if err := susan.AddMember("leshang", "P1", "susan"); !extension.IsPermissionDenied(err) {
		t.Errorf("non-owner AddMember = %v", err)
	}
}

func TestTreeListingMarksCitedNodes(t *testing.T) {
	fx := newFixture(t)
	entries, err := fx.anon.Tree("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]hosting.TreeEntryResponse{}
	for _, e := range entries {
		byPath[e.Path] = e
	}
	if _, ok := byPath["/citation.cite"]; ok {
		t.Error("tree listing leaks citation.cite")
	}
	if !byPath["/CoreCover"].Cited {
		t.Error("/CoreCover not marked cited")
	}
	if byPath["/src"].Cited {
		t.Error("/src wrongly marked cited")
	}
	if !byPath["/src"].IsDir || byPath["/src/main.py"].IsDir {
		t.Error("IsDir flags wrong")
	}
}

func TestCiteFileDownloadParses(t *testing.T) {
	fx := newFixture(t)
	data, err := fx.anon.CiteFile("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := citefile.Decode(data)
	if err != nil {
		t.Fatalf("downloaded citation.cite unparseable: %v\n%s", err, data)
	}
	if !fn.Has("/CoreCover") {
		t.Errorf("paths = %v", fn.Paths())
	}
	if !strings.Contains(string(data), `"/CoreCover/"`) {
		t.Error("directory key missing trailing slash")
	}
}

func TestForkViaAPI(t *testing.T) {
	fx := newFixture(t)
	tok, err := fx.anon.CreateUser("susan")
	if err != nil {
		t.Fatal(err)
	}
	susan := fx.anon.WithToken(tok)
	resp, err := susan.Fork("leshang", "P1", "P1-fork")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Owner != "susan" || resp.Name != "P1-fork" {
		t.Errorf("fork = %+v", resp)
	}
	// The fork serves citations identical to the origin (ForkCite).
	origCite, _, err := fx.anon.GenCite("leshang", "P1", "main", "/CoreCover")
	if err != nil {
		t.Fatal(err)
	}
	forkCite, _, err := fx.anon.GenCite("susan", "P1-fork", "main", "/CoreCover")
	if err != nil {
		t.Fatal(err)
	}
	if !forkCite.Equal(origCite) {
		t.Errorf("fork citation differs:\n%+v\n%+v", forkCite, origCite)
	}
	// Fork owner can edit their fork but still not the origin.
	c := core.Citation{Owner: "susan", RepoName: "r", URL: "u", Version: "1"}
	if _, err := susan.AddCite("susan", "P1-fork", "main", "/src", c); err != nil {
		t.Errorf("fork owner edit: %v", err)
	}
	if _, err := susan.AddCite("leshang", "P1", "main", "/src", c); !extension.IsPermissionDenied(err) {
		t.Errorf("fork owner editing origin = %v", err)
	}
	// Forking to an existing name conflicts.
	if _, err := susan.Fork("leshang", "P1", "P1-fork"); err == nil {
		t.Error("duplicate fork accepted")
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	fx := newFixture(t)
	// Clone, commit locally, push back, verify remotely.
	local, err := fx.owner.Clone("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/new-file.txt", []byte("local work\n")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/new-file.txt", core.Citation{
		Owner: "leshang", RepoName: "addon", URL: "https://x/addon", Version: "0.1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("leshang", "l@upenn.edu", time.Date(2018, 9, 5, 0, 0, 0, 0, time.UTC)),
		Message: "local commit",
	}); err != nil {
		t.Fatal(err)
	}
	stored, err := fx.owner.Sync(local, "leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	if stored == 0 {
		t.Error("push stored nothing")
	}
	got, from, err := fx.anon.GenCite("leshang", "P1", "main", "/new-file.txt")
	if err != nil || from != "/new-file.txt" || got.RepoName != "addon" {
		t.Errorf("after push: %+v from %q, %v", got, from, err)
	}
	// Non-member push is refused.
	tok, _ := fx.anon.CreateUser("mallory")
	mallory := fx.anon.WithToken(tok)
	if _, err := mallory.Sync(local, "leshang", "P1", "main"); !extension.IsPermissionDenied(err) {
		t.Errorf("non-member push = %v", err)
	}
}

func TestPushRejectsNonFastForward(t *testing.T) {
	fx := newFixture(t)
	// Two clones diverge; the second push must be refused.
	a, err := fx.owner.Clone("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.owner.Clone("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	commit := func(r *gitcite.Repo, fname string, unix int64) {
		wt, err := r.Checkout("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := wt.WriteFile(fname, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("l", "l@x", time.Unix(unix, 0)), Message: fname}); err != nil {
			t.Fatal(err)
		}
	}
	commit(a, "/a.txt", 1_600_000_000)
	commit(b, "/b.txt", 1_600_000_001)
	if _, err := fx.owner.Sync(a, "leshang", "P1", "main"); err != nil {
		t.Fatal(err)
	}
	_, err = fx.owner.Sync(b, "leshang", "P1", "main")
	if err == nil {
		t.Fatal("divergent push accepted")
	}
	var apiErr *extension.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Errorf("divergent push error = %v", err)
	}
}

func TestPlatformErrorsMapToHTTPStatus(t *testing.T) {
	fx := newFixture(t)
	cases := []struct {
		name   string
		call   func() error
		status int
	}{
		{"missing repo", func() error { _, err := fx.anon.GetRepo("nobody", "ghost"); return err }, 404},
		{"missing branch", func() error { _, _, err := fx.anon.GenCite("leshang", "P1", "nope", "/"); return err }, 404},
		{"missing path", func() error { _, _, err := fx.anon.GenCite("leshang", "P1", "main", "/no/such"); return err }, 200},
		{"duplicate user", func() error { _, err := fx.anon.CreateUser("leshang"); return err }, 409},
	}
	for _, c := range cases {
		err := c.call()
		if c.status == 200 {
			// Resolution of a missing path still succeeds (Cite is total:
			// closest ancestor is the root). This mirrors the model.
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var apiErr *extension.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != c.status {
			t.Errorf("%s: err = %v, want status %d", c.name, err, c.status)
		}
	}
}

func TestChainEndpoint(t *testing.T) {
	fx := newFixture(t)
	resp, err := http.Get(fx.server.URL + "/api/v1/repos/leshang/P1/chain/main?path=/CoreCover/rewrite.py")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var chain hosting.ChainResponse
	if err := json.NewDecoder(resp.Body).Decode(&chain); err != nil {
		t.Fatal(err)
	}
	// Root first, then the CoreCover entry (the whole-path semantics).
	if len(chain.Chain) != 2 || chain.Chain[0].Path != "/" || chain.Chain[1].Path != "/CoreCover" {
		t.Errorf("chain = %+v", chain.Chain)
	}
	cite, err := citefile.DecodeEntry(chain.Chain[1].Citation)
	if err != nil || cite.Owner != "Chen Li" {
		t.Errorf("chain citation = %+v, %v", cite, err)
	}
}

func TestCreditEndpoint(t *testing.T) {
	fx := newFixture(t)
	rep, err := fx.anon.Credit("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFiles != 4 {
		t.Errorf("TotalFiles = %d, want 4", rep.TotalFiles)
	}
	// The CoreCover file is externally credited (Chen Li's repo).
	if rep.ExternalFiles != 1 {
		t.Errorf("ExternalFiles = %d, want 1", rep.ExternalFiles)
	}
	var chenLi *hosting.CreditAuthor
	for i := range rep.Authors {
		if rep.Authors[i].Author == "Chen Li" {
			chenLi = &rep.Authors[i]
		}
	}
	if chenLi == nil || chenLi.Files != 1 {
		t.Errorf("Chen Li credit = %+v", rep.Authors)
	}
	foundExternal := false
	for _, e := range rep.Entries {
		if e.Path == "/CoreCover" && e.External && e.Files == 1 {
			foundExternal = true
		}
	}
	if !foundExternal {
		t.Errorf("entries = %+v", rep.Entries)
	}
	// Missing repo → 404.
	_, err = fx.anon.Credit("nobody", "ghost", "main")
	var apiErr *extension.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("credit for missing repo = %v", err)
	}
}

func TestEditCiteRejectsBadBodies(t *testing.T) {
	fx := newFixture(t)
	post := func(body string) int {
		req, err := http.NewRequest("POST", fx.server.URL+"/api/v1/repos/leshang/P1/cite", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+fx.ownerTok)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{not json"); got < 400 || got >= 500 {
		t.Errorf("malformed JSON status = %d", got)
	}
	if got := post(`{"branch": "main", "path": "/src", "unknownField": 1}`); got < 400 || got >= 500 {
		t.Errorf("unknown field status = %d", got)
	}
	if got := post(`{"branch": "main", "path": "/src"}`); got < 400 || got >= 500 {
		t.Errorf("missing citation status = %d", got)
	}
}

// TestParallelReadEndpoints hammers every public read endpoint — GenCite,
// chain, credit, tree listing and pull — from parallel clients against one
// hosted repository; run with -race. All of them ride the shared
// resolved-citation function of the branch tip.
func TestParallelReadEndpoints(t *testing.T) {
	fx := newFixture(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0:
					cite, from, err := fx.anon.GenCite("leshang", "P1", "main", "/CoreCover/rewrite.py")
					if err != nil {
						errCh <- err
						return
					}
					if from != "/CoreCover" || cite.Owner != "Chen Li" {
						errCh <- fmt.Errorf("GenCite owner=%q from=%q", cite.Owner, from)
						return
					}
				case 1:
					chain, err := fx.anon.Chain("leshang", "P1", "main", "/CoreCover/rewrite.py")
					if err != nil {
						errCh <- err
						return
					}
					if len(chain) != 2 {
						errCh <- fmt.Errorf("chain length %d, want 2", len(chain))
						return
					}
				case 2:
					rep, err := fx.anon.Credit("leshang", "P1", "main")
					if err != nil {
						errCh <- err
						return
					}
					if rep.TotalFiles != 4 {
						errCh <- fmt.Errorf("credit totalFiles=%d, want 4", rep.TotalFiles)
						return
					}
				case 3:
					entries, err := fx.anon.Tree("leshang", "P1", "main")
					if err != nil {
						errCh <- err
						return
					}
					if len(entries) == 0 {
						errCh <- fmt.Errorf("empty tree listing")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("parallel read: %v", err)
	}
}

func TestConcurrentReadsAndEdits(t *testing.T) {
	fx := newFixture(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	// Readers generate citations while the owner edits.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := fx.anon.GenCite("leshang", "P1", "main", "/src/main.py"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			c := core.Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1"}
			if _, err := fx.owner.AddCite("leshang", "P1", "main", "/src/util.py", c); err != nil {
				errCh <- err
				return
			}
			if _, err := fx.owner.DelCite("leshang", "P1", "main", "/src/util.py"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent op: %v", err)
	}
}
