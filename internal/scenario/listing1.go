package scenario

import (
	"fmt"
	"io"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// Listing1 citation values, verbatim from the paper.
var (
	// ListingRootCitation is the "/" entry: the Data_citation_demo
	// repository itself.
	ListingRootCitation = core.Citation{
		RepoName:      "Data_citation_demo",
		Owner:         "Yinjun Wu",
		CommittedDate: time.Date(2018, 9, 4, 2, 35, 20, 0, time.UTC),
		CommitID:      "bbd248a",
		URL:           "https://github.com/thuwuyinjun/Data_citation_demo",
		AuthorList:    []string{"Yinjun Wu"},
	}
	// ListingCoreCoverCitation is the "/CoreCover/" entry: Chen Li's
	// CoreCover implementation, imported via CopyCite.
	ListingCoreCoverCitation = core.Citation{
		RepoName:      "alu01-corecover",
		Owner:         "Chen Li",
		CommittedDate: time.Date(2018, 3, 24, 0, 29, 45, 0, time.UTC),
		CommitID:      "5cc951e",
		URL:           "https://github.com/chenlica/alu01-corecover",
		AuthorList:    []string{"Chen Li"},
	}
	// ListingGUICitation is the "/citation/GUI/" entry: Yanssie's GUI,
	// developed on a branch and merged via MergeCite.
	ListingGUICitation = core.Citation{
		RepoName:      "Data_citation_demo",
		Owner:         "Yinjun Wu",
		CommittedDate: time.Date(2017, 6, 16, 20, 57, 6, 0, time.UTC),
		CommitID:      "2dd6813",
		URL:           "https://github.com/thuwuyinjun/Data_citation_demo",
		AuthorList:    []string{"Yanssie"},
	}
)

// Listing1Result carries the reconstructed repositories and the final
// citation file.
type Listing1Result struct {
	// CoreCover is Chen Li's repository [12].
	CoreCover *gitcite.Repo
	// Demo is Yinjun Wu's Data_citation_demo repository [15].
	Demo *gitcite.Repo
	// FinalCommit is the tip whose citation.cite reproduces Listing 1.
	FinalCommit object.ID
	// CiteFile is the final citation.cite with its root dated from the
	// release commit, as the paper prints it.
	CiteFile []byte
	// Steps is the replay log.
	Steps []string
}

// Listing1 reconstructs the paper's §4 demonstration scenario and returns
// the final citation.cite, root dated from the release commit, whose three
// entries ("/", "/CoreCover/", "/citation/GUI/") carry exactly the paper's
// values.
//
// The underlying commit hashes are necessarily our own (we rebuilt the
// repositories from the paper's description), but the recorded citation
// values — including the original commitIDs 5cc951e, 2dd6813 and bbd248a —
// are stored citation data and are reproduced verbatim.
func Listing1() (*Listing1Result, error) {
	res := &Listing1Result{}

	// --- Chen Li's alu01-corecover [12] ---
	coreCover, err := gitcite.NewMemoryRepo(gitcite.Meta{
		Owner: "Chen Li", Name: "alu01-corecover",
		URL: "https://github.com/chenlica/alu01-corecover",
	})
	if err != nil {
		return nil, err
	}
	res.CoreCover = coreCover
	wt, err := coreCover.Checkout("master")
	if err != nil {
		return nil, err
	}
	for p, d := range map[string]string{
		"/src/CoreCover.java":     "// CoreCover query rewriting using views\n",
		"/src/QueryRewriter.java": "// rewriting engine\n",
		"/test/TestCases.java":    "// tests\n",
	} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			return nil, err
		}
	}
	if err := wt.SetRootCitation(ListingCoreCoverCitation); err != nil {
		return nil, err
	}
	ccTip, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Chen Li", "chenli@uci.edu", ListingCoreCoverCitation.CommittedDate),
		Message: "CoreCover algorithm implementation",
	})
	if err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, "reconstructed chenlica/alu01-corecover (root cited: Chen Li, 5cc951e)")

	// --- Yinjun Wu's Data_citation_demo [15] ---
	demo, err := gitcite.NewMemoryRepo(gitcite.Meta{
		Owner: "Yinjun Wu", Name: "Data_citation_demo",
		URL: "https://github.com/thuwuyinjun/Data_citation_demo",
	})
	if err != nil {
		return nil, err
	}
	res.Demo = demo

	// Initial CiteDB code (2017), including the citation/ directory the GUI
	// will later join.
	wtDemo, err := demo.Checkout("master")
	if err != nil {
		return nil, err
	}
	for p, d := range map[string]string{
		"/citation/CiteDB.py":  "# data citation implementation\n",
		"/citation/rewrite.py": "# query rewriting glue\n",
		"/schema/citedb.sql":   "-- schema\n",
		"/README.md":           "# Data citation demo\n",
	} {
		if err := wtDemo.WriteFile(p, []byte(d)); err != nil {
			return nil, err
		}
	}
	if err := wtDemo.SetRootCitation(ListingRootCitation); err != nil {
		return nil, err
	}
	if _, err := wtDemo.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Yinjun Wu", "wuyinjun@seas.upenn.edu", time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)),
		Message: "CiteDB demonstration code",
	}); err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, "reconstructed thuwuyinjun/Data_citation_demo initial version (2017-06)")

	// Yanssie's GUI branch: "the project code was branched to enable a
	// summer student Yanssie to independently develop a GUI in a separate
	// directory".
	baseTip, err := demo.VCS.BranchTip("master")
	if err != nil {
		return nil, err
	}
	if err := demo.VCS.CreateBranch("gui", baseTip); err != nil {
		return nil, err
	}
	wtGUI, err := demo.Checkout("gui")
	if err != nil {
		return nil, err
	}
	for p, d := range map[string]string{
		"/citation/GUI/index.html": "<html>CiteDB demo GUI</html>\n",
		"/citation/GUI/app.js":     "// GUI logic\n",
	} {
		if err := wtGUI.WriteFile(p, []byte(d)); err != nil {
			return nil, err
		}
	}
	if err := wtGUI.AddCite("/citation/GUI", ListingGUICitation); err != nil {
		return nil, err
	}
	if _, err := wtGUI.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Yanssie", "yanssie@seas.upenn.edu", ListingGUICitation.CommittedDate),
		Message: "GUI for the CiteDB demo",
	}); err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, "branched 'gui'; Yanssie developed /citation/GUI and cited it (AddCite)")

	// CopyCite: "the CoreCover query rewriting using views code was
	// imported from Chen Li's Github project".
	wtMain, err := demo.Checkout("master")
	if err != nil {
		return nil, err
	}
	if err := wtMain.CopyCite(coreCover, ccTip, "/", "/CoreCover"); err != nil {
		return nil, err
	}
	if _, err := wtMain.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Yinjun Wu", "wuyinjun@seas.upenn.edu", time.Date(2018, 3, 25, 9, 0, 0, 0, time.UTC)),
		Message: "Import CoreCover from chenlica/alu01-corecover (CopyCite)",
	}); err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, "CopyCite: imported Chen Li's repository under /CoreCover (citation migrated)")

	// MergeCite: "later merged with the main branch of code development".
	mres, err := demo.MergeBranches("master", "gui", gitcite.MergeOptions{
		Commit: vcs.CommitOptions{
			Author:  vcs.Sig("Yinjun Wu", "wuyinjun@seas.upenn.edu", time.Date(2018, 9, 1, 10, 0, 0, 0, time.UTC)),
			Message: "Merge branch 'gui' (MergeCite)",
		},
	})
	if err != nil {
		return nil, err
	}
	if len(mres.CiteConflicts) != 0 {
		return nil, fmt.Errorf("scenario: listing1 merge conflicted: %+v", mres.CiteConflicts)
	}
	res.Steps = append(res.Steps, "MergeCite: merged 'gui' into master (union, no conflicts)")

	// Final released version of 2018-09-04: restore the paper's root entry
	// (the release's recorded commitID) and commit at the paper's date.
	wtFinal, err := demo.Checkout("master")
	if err != nil {
		return nil, err
	}
	if err := wtFinal.SetRootCitation(ListingRootCitation); err != nil {
		return nil, err
	}
	res.FinalCommit, err = wtFinal.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Yinjun Wu", "wuyinjun@seas.upenn.edu", ListingRootCitation.CommittedDate),
		Message: "Release: demonstration version of 2018-09-04",
	})
	if err != nil {
		return nil, err
	}
	res.Steps = append(res.Steps, "released the 2018-09-04 version (root entry bbd248a)")

	// The stored file leaves the root's date to the release commit; the
	// listing shows the file as a reader of the version sees it, dated.
	fn, err := demo.DatedFunctionAt(res.FinalCommit)
	if err != nil {
		return nil, err
	}
	tree, err := demo.TreeAt(res.FinalCommit)
	if err != nil {
		return nil, err
	}
	if res.CiteFile, err = citefile.Encode(fn, tree.IsDir); err != nil {
		return nil, err
	}
	return res, nil
}

// Check verifies the final citation function against the paper's Listing 1:
// exactly the three entries with exactly the paper's values.
func (r *Listing1Result) Check() ([]string, error) {
	fn, err := r.Demo.DatedFunctionAt(r.FinalCommit)
	if err != nil {
		return nil, err
	}
	// In the listing's key order, so the replay prints the same lines on
	// every run.
	expect := []core.PathCitation{
		{Path: "/", Citation: ListingRootCitation},
		{Path: "/CoreCover", Citation: ListingCoreCoverCitation},
		{Path: "/citation/GUI", Citation: ListingGUICitation},
	}
	if fn.Len() != len(expect) {
		return nil, fmt.Errorf("scenario: listing1 has %d entries (%v), want %d", fn.Len(), fn.Paths(), len(expect))
	}
	var lines []string
	for _, want := range expect {
		got, err := fn.Get(want.Path)
		if err != nil {
			return nil, fmt.Errorf("scenario: listing1 missing entry %q", want.Path)
		}
		if !got.Equal(want.Citation) {
			return nil, fmt.Errorf("scenario: listing1 entry %q differs:\n got %+v\nwant %+v", want.Path, got, want.Citation)
		}
		lines = append(lines, fmt.Sprintf("entry %-15q matches Listing 1 (owner %s, commit %s) ✓", want.Path, got.Owner, got.CommitID))
	}
	return lines, nil
}

// Fprint writes the replay log, the checks and the regenerated file.
func (r *Listing1Result) Fprint(w io.Writer) error {
	fmt.Fprintln(w, "Listing 1: final citation.cite of the CiteDB demonstration")
	fmt.Fprintln(w, "-----------------------------------------------------------")
	for _, s := range r.Steps {
		fmt.Fprintln(w, "  "+s)
	}
	lines, err := r.Check()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, l := range lines {
		fmt.Fprintln(w, "  "+l)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Regenerated citation.cite:")
	_, err = w.Write(r.CiteFile)
	return err
}
