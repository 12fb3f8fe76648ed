package scenario

import (
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
)

// Figure2Check is one row of the permission matrix: an actor attempting an
// extension operation.
type Figure2Check struct {
	Actor     string // "owner", "member", "non-member", "anonymous"
	Operation string // "GenCite", "AddCite", "ModifyCite", "DelCite"
	Allowed   bool   // what the platform did
	WantAllow bool   // what the paper's Figure 2 prescribes
	Detail    string
}

// OK reports whether the observed behaviour matches the paper.
func (c Figure2Check) OK() bool { return c.Allowed == c.WantAllow }

// Figure2Result is the outcome of the browser-extension flow replay.
type Figure2Result struct {
	Matrix []Figure2Check
	// GeneratedText is the citation text a non-member sees in the popup's
	// text window (for copy-pasting into a bibliography manager).
	GeneratedText string
	// PrefillFrom demonstrates the popup's "Generate Citation" prefill for
	// members: the closest ancestor's citation offered for editing.
	PrefillFrom string
}

// Figure2 replays the browser-extension functionality of the paper's
// Figure 2 against a real HTTP server:
//
//   - any user (even anonymous) can generate citations;
//   - non-members cannot add/delete/modify ("they will not be allowed to
//     use the Add/Delete button functionalities");
//   - members see/edit explicit citations and can use "Generate Citation"
//     to prefill from the closest ancestor;
//   - every edit becomes a new version of the citation file.
func Figure2() (*Figure2Result, error) {
	platform := hosting.NewPlatform()
	server := hosting.NewServer(platform)
	clock := time.Date(2019, 8, 2, 9, 0, 0, 0, time.UTC)
	server.Now = func() time.Time {
		clock = clock.Add(time.Minute)
		return clock
	}
	ts := httptest.NewServer(server)
	defer ts.Close()
	anon := extension.New(ts.URL, "")

	// Accounts: the owner, a project member, and an outsider.
	ownerTok, err := anon.CreateUser("leshang")
	if err != nil {
		return nil, err
	}
	owner := anon.WithToken(ownerTok)
	memberTok, err := anon.CreateUser("susan")
	if err != nil {
		return nil, err
	}
	member := anon.WithToken(memberTok)
	outsiderTok, err := anon.CreateUser("visitor")
	if err != nil {
		return nil, err
	}
	outsider := anon.WithToken(outsiderTok)

	// The repository with one cited subtree.
	if err := owner.CreateRepo("demo", "https://git.example/leshang/demo", "MIT"); err != nil {
		return nil, err
	}
	if err := owner.AddMember("leshang", "demo", "susan"); err != nil {
		return nil, err
	}
	local, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "leshang", Name: "demo", URL: "https://git.example/leshang/demo"})
	if err != nil {
		return nil, err
	}
	wt, err := local.Checkout("main")
	if err != nil {
		return nil, err
	}
	for p, d := range map[string]string{
		"/src/engine.py": "engine\n",
		"/src/util.py":   "util\n",
		"/docs/guide.md": "guide\n",
	} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			return nil, err
		}
	}
	if err := wt.AddCite("/src", core.Citation{
		Owner: "leshang", RepoName: "demo-engine", URL: "https://git.example/leshang/demo/src",
		Version: "1", AuthorList: []string{"Leshang Chen"},
	}); err != nil {
		return nil, err
	}
	if _, err := wt.Commit(vcs.CommitOptions{
		Author: vcs.Sig("leshang", "l@upenn.edu", time.Date(2019, 8, 1, 12, 0, 0, 0, time.UTC)), Message: "initial",
	}); err != nil {
		return nil, err
	}
	if _, err := owner.Sync(local, "leshang", "demo", "main"); err != nil {
		return nil, err
	}

	res := &Figure2Result{}
	newCite := core.Citation{Owner: "x", RepoName: "y", URL: "https://u", Version: "1"}

	record := func(actor, op string, wantAllow bool, err error) {
		check := Figure2Check{Actor: actor, Operation: op, WantAllow: wantAllow}
		switch {
		case err == nil:
			check.Allowed = true
			check.Detail = "ok"
		case extension.IsPermissionDenied(err):
			check.Allowed = false
			check.Detail = "permission denied"
		default:
			check.Allowed = false
			check.Detail = err.Error()
		}
		res.Matrix = append(res.Matrix, check)
	}

	// GenCite: everyone.
	_, _, err = anon.GenCite("leshang", "demo", "main", "/docs/guide.md")
	record("anonymous", "GenCite", true, err)
	text, err := outsider.GenCiteRendered("leshang", "demo", "main", "/src/engine.py", "text")
	record("non-member", "GenCite", true, err)
	res.GeneratedText = text
	_, _, err = member.GenCite("leshang", "demo", "main", "/src")
	record("member", "GenCite", true, err)
	_, _, err = owner.GenCite("leshang", "demo", "main", "/")
	record("owner", "GenCite", true, err)

	// AddCite: members only.
	_, err = anon.AddCite("leshang", "demo", "main", "/docs", newCite)
	record("anonymous", "AddCite", false, err)
	_, err = outsider.AddCite("leshang", "demo", "main", "/docs", newCite)
	record("non-member", "AddCite", false, err)
	_, err = member.AddCite("leshang", "demo", "main", "/docs", newCite)
	record("member", "AddCite", true, err)

	// The member's popup "Generate Citation" prefill: resolve the closest
	// ancestor of an uncited node, to be edited and attached.
	prefill, from, err := member.GenCite("leshang", "demo", "main", "/src/util.py")
	if err != nil {
		return nil, err
	}
	res.PrefillFrom = from
	edited := prefill.Clone()
	edited.Note = "utility module (edited from ancestor prefill)"
	_, err = member.AddCite("leshang", "demo", "main", "/src/util.py", edited)
	record("member", "AddCite(prefilled)", true, err)

	// ModifyCite / DelCite: members only.
	mod := newCite.Clone()
	mod.Version = "2"
	_, err = outsider.ModifyCite("leshang", "demo", "main", "/docs", mod)
	record("non-member", "ModifyCite", false, err)
	_, err = owner.ModifyCite("leshang", "demo", "main", "/docs", mod)
	record("owner", "ModifyCite", true, err)
	_, err = outsider.DelCite("leshang", "demo", "main", "/docs")
	record("non-member", "DelCite", false, err)
	_, err = member.DelCite("leshang", "demo", "main", "/docs")
	record("member", "DelCite", true, err)

	return res, nil
}

// Check verifies every matrix row matches the paper's prescription.
func (r *Figure2Result) Check() ([]string, error) {
	var lines []string
	for _, c := range r.Matrix {
		if !c.OK() {
			return nil, fmt.Errorf("scenario: figure2: %s %s: allowed=%v, paper says %v (%s)",
				c.Actor, c.Operation, c.Allowed, c.WantAllow, c.Detail)
		}
		verdict := "allowed"
		if !c.Allowed {
			verdict = "denied"
		}
		lines = append(lines, fmt.Sprintf("%-11s %-20s %-8s ✓", c.Actor, c.Operation, verdict))
	}
	if r.GeneratedText == "" {
		return nil, fmt.Errorf("scenario: figure2: non-member popup text window is empty")
	}
	if r.PrefillFrom != "/src" {
		return nil, fmt.Errorf("scenario: figure2: prefill came from %q, want /src", r.PrefillFrom)
	}
	return lines, nil
}

// Fprint writes the permission matrix.
func (r *Figure2Result) Fprint(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2: browser-extension permission flows (over HTTP)")
	fmt.Fprintln(w, "---------------------------------------------------------")
	lines, err := r.Check()
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(w, "  "+l)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  non-member popup text window:\n    %s", r.GeneratedText)
	fmt.Fprintf(w, "  member prefill source (closest ancestor): %s\n", r.PrefillFrom)
	return nil
}
