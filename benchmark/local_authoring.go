package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/vcs/refs"
)

// localAuthoring is the paper's local executable tool and its six operators
// (AddCite, ModifyCite, DelCite, CopyCite, MergeCite, and GenCite over the
// result) on an on-disk pack-backed repository, with no server anywhere.
// hosting and extension do nothing; core, gitcite, vcs, citefile, format and
// store do everything — the control for any server-side change and the only
// place CopyCite and MergeCite cost is visible.
type localAuthoring struct {
	e       *env
	stacks  *stackSet
	authors []*localClient
}

// The op classes of local-authoring, in the order classes lists them.
const (
	localCommit = iota
	localCiteEdit
	localGenCite
	localRender
	localCopyCite
	localMerge
	localCredit
)

func (w *localAuthoring) classes() []opClass {
	return []opClass{
		localCommit: {"commit", 40}, localCiteEdit: {"cite_edit", 15}, localGenCite: {"gencite", 25}, localRender: {"render", 5},
		localCopyCite: {"copycite", 5}, localMerge: {"merge", 5}, localCredit: {"credit", 5},
	}
}

// commitSeries is the in-op series holding every Worktree.Commit of the
// commit and cite_edit classes.
const commitSeries = "worktree_commit"

func (w *localAuthoring) headline() []string { return []string{commitSeries} }

// Every commit deepens the history, and MergeBranches walks all of it: half
// a minute in, a merge costs ten times what it cost at the start and the
// workload's throughput has halved.
func (w *localAuthoring) fresh() bool { return true }

func (w *localAuthoring) setup(e *env) error {
	w.e = e
	if e.tr != nil {
		w.stacks = &stackSet{}
	}
	for i := 0; i < e.clients; i++ {
		lc, err := w.newAuthor(i)
		if err != nil {
			return err
		}
		w.authors = append(w.authors, lc)
	}
	return nil
}

// localClient is one author: an on-disk repository, its working copy, a donor
// repository to copy from, and a naive model of the citation function the
// operators must have produced — a plain map from path to citation, resolved
// by walking up the path — that every answer is checked against.
type localClient struct {
	w     *localAuthoring
	dir   string
	meta  gitcite.Meta
	repo  *gitcite.Repository
	wt    *gitcite.Worktree
	clk   *clock
	fx    *fixture
	paths []string // files and spine directories of the fixture

	donor     *gitcite.Repository
	donorTip  gitcite.CommitID
	pkgCite   []gitcite.Citation          // donor citation of /pkgK
	pkgFile   []gitcite.Citation          // donor citation of /pkgK/f00.txt
	slotPkg   []int                       // which donor package occupies /vendor/slotJ (-1: empty)
	model     map[string]gitcite.Citation // explicit entries, "/" excluded
	editState map[string]int              // cite_edit progress per slot path: 0 none, 1 added, 2 modified
	slots     []string
	files     int // files in the working copy

	cites []gitcite.Citation // gencite result buffers, reused
	froms []string
}

func (w *localAuthoring) newAuthor(i int) (*localClient, error) {
	e, sz := w.e, w.e.sz
	lc := &localClient{w: w, clk: &clock{}, model: map[string]gitcite.Citation{}, editState: map[string]int{}}
	lc.dir = filepath.Join(e.dir, fmt.Sprintf("author%d", i))
	lc.meta = gitcite.Meta{Owner: "bench", Name: fmt.Sprintf("tool%d", i), URL: fmt.Sprintf("https://git.example/bench/tool%d", i), License: "MIT"}
	var err error
	if e.tr != nil {
		st, err := w.stacks.open(lc.dir, e.tr)
		if err != nil {
			return nil, err
		}
		lc.repo = st.repository(lc.meta)
	} else if lc.repo, err = gitcite.OpenPackedRepository(lc.dir, lc.meta); err != nil {
		return nil, err
	}
	rng := rngFor(e.seed, fmt.Sprintf("local-authoring/author/%d", i))
	lc.fx = genFixture(rng, lc.meta, sz.localFiles, sz.localDepth, sz.localCitedFiles, 0)
	if lc.wt, _, err = lc.fx.populate(lc.repo, rng, lc.clk); err != nil {
		return nil, err
	}
	lc.files = len(lc.fx.files)
	lc.paths = append(append([]string{}, lc.fx.files...), lc.fx.spine...)
	// cite_edit cycles a bounded pool of paths through added → modified →
	// deleted, and the pool starts spread evenly over the three states: the
	// citation file is as large at the first operation as at the last.
	lc.slots = lc.fx.uncited()
	lc.slots = lc.slots[:min(sz.localEditSlots, len(lc.slots))]
	for j, p := range lc.slots {
		if state := j % 3; state > 0 {
			c := genCitation(rng, p)
			if err := lc.wt.AddCite(p, c); err != nil {
				return nil, err
			}
			lc.editState[p], lc.model[p] = state, c
		}
	}
	if _, err := lc.wt.Commit(lc.clk.commit("citation edits in progress")); err != nil {
		return nil, err
	}
	// populate drew each citation from rng in f.cited order; read them back
	// from the working function rather than replaying the draws.
	for _, p := range lc.fx.cited {
		c, _, err := lc.wt.GenCite(p)
		if err != nil {
			return nil, err
		}
		lc.model[p] = c.Clone()
	}

	// The donor: packages of copyFiles files, each package cited as a whole
	// and on its first file.
	donorMeta := gitcite.Meta{Owner: "upstream", Name: fmt.Sprintf("donor%d", i), URL: fmt.Sprintf("https://git.example/upstream/donor%d", i)}
	if lc.donor, err = gitcite.NewRepository(donorMeta); err != nil {
		return nil, err
	}
	dwt, err := lc.donor.Checkout("main")
	if err != nil {
		return nil, err
	}
	for k := 0; k < sz.donorPackages; k++ {
		for f := 0; f < sz.copyFiles; f++ {
			p := fmt.Sprintf("/pkg%d/f%02d.txt", k, f)
			if err := dwt.WriteFile(p, fileBody(p, rng.Uint32())); err != nil {
				return nil, err
			}
		}
		pc, fc := genCitation(rng, fmt.Sprintf("pkg%d", k)), genCitation(rng, fmt.Sprintf("pkg%d-f00", k))
		if err := dwt.AddCite(fmt.Sprintf("/pkg%d", k), pc); err != nil {
			return nil, err
		}
		if err := dwt.AddCite(fmt.Sprintf("/pkg%d/f00.txt", k), fc); err != nil {
			return nil, err
		}
		lc.pkgCite, lc.pkgFile = append(lc.pkgCite, pc), append(lc.pkgFile, fc)
	}
	if lc.donorTip, err = dwt.Commit((&clock{}).commit("donor packages")); err != nil {
		return nil, err
	}
	lc.slotPkg = make([]int, sz.copySlots)
	for j := range lc.slotPkg {
		lc.slotPkg[j] = -1
	}
	lc.cites = make([]gitcite.Citation, sz.genciteBatch)
	lc.froms = make([]string, sz.genciteBatch)
	return lc, nil
}

func (w *localAuthoring) client(i int) (client, error) { return w.authors[i], nil }

// want resolves path in the naive model: the entry of the path itself or of
// its closest ancestor that has one; ok=false means the root default applies.
func (lc *localClient) want(path string) (gitcite.Citation, string, bool) {
	for p := path; p != "/"; {
		if c, ok := lc.model[p]; ok {
			return c, p, true
		}
		if i := strings.LastIndexByte(p, '/'); i > 0 {
			p = p[:i]
		} else {
			p = "/"
		}
	}
	return gitcite.Citation{}, "/", false
}

// check compares one generated citation at version head with the model.
func (lc *localClient) check(head gitcite.CommitID, path string, got gitcite.Citation, from string) error {
	want, wantFrom, explicit := lc.want(path)
	if from != wantFrom {
		return fmt.Errorf("%s resolved from %q, want %q", path, from, wantFrom)
	}
	if explicit {
		if !got.Equal(want) {
			return fmt.Errorf("%s: wrong citation from %q: got %v, want %v", path, from, got, want)
		}
		return nil
	}
	if got.RepoName != lc.meta.Name || got.Owner != lc.meta.Owner || got.CommitID != head.Short() {
		return fmt.Errorf("%s: root citation %v does not name %s/%s at %s", path, got, lc.meta.Owner, lc.meta.Name, head.Short())
	}
	return nil
}

// commit records the working copy as a new version, timing Worktree.Commit
// alone into the commit series.
func (lc *localClient) commit(rec *recorder, msg string, timed bool) (gitcite.CommitID, time.Duration, error) {
	var id gitcite.CommitID
	opts := lc.clk.commit(msg)
	d, err := lc.w.e.call("gitcite.commit", func() (err error) {
		id, err = lc.wt.Commit(opts)
		return err
	})
	if err == nil && timed {
		rec.observe(commitSeries, d)
	}
	rec.count("commits", 1)
	return id, d, err
}

func (lc *localClient) do(o op, rec *recorder) (time.Duration, error) {
	e, sz := lc.w.e, lc.w.e.sz
	switch o.class {
	case localCommit: // edit one to three files
		n := 1 + int(o.draw[0])%3
		var last string
		for k := 0; k < n; k++ {
			last = lc.fx.files[int(o.draw[1+k])%len(lc.fx.files)]
			if err := lc.wt.WriteFile(last, fileBody(last, o.draw[1+k]^uint32(lc.clk.n))); err != nil {
				return 0, err
			}
		}
		id, d, err := lc.commit(rec, "edit", true)
		if err != nil {
			return d, err
		}
		got, from, err := lc.repo.Generate(id, last)
		if err == nil {
			err = lc.check(id, last, got, from)
		}
		return d, err
	case localCiteEdit: // the next of AddCite → ModifyCite → DelCite on one path
		p := lc.slots[int(o.draw[0])%len(lc.slots)]
		cite := genCitation(rngFor(uint64(o.draw[1]), "cite_edit"), p)
		var opErr error
		dOp, _ := e.call("core.edit", func() error {
			switch lc.editState[p] {
			case 0:
				opErr = lc.wt.AddCite(p, cite)
			case 1:
				opErr = lc.wt.ModifyCite(p, cite)
			default:
				opErr = lc.wt.DelCite(p)
			}
			return opErr
		})
		if opErr != nil {
			return dOp, opErr
		}
		if lc.editState[p] = (lc.editState[p] + 1) % 3; lc.editState[p] == 0 {
			delete(lc.model, p)
		} else {
			lc.model[p] = cite
		}
		id, d, err := lc.commit(rec, "cite edit", true)
		if err != nil {
			return dOp + d, err
		}
		got, from, err := lc.repo.Generate(id, p)
		if err == nil {
			err = lc.check(id, p, got, from)
		}
		return dOp + d, err
	case localGenCite: // a batch of Generate and GenerateChain at head
		head := lc.wt.Base()
		stride := 1 + int(o.draw[1])%7
		at := int(o.draw[0]) % len(lc.paths)
		chains := make([][]gitcite.PathCitation, sz.chainBatch)
		d, err := e.call("gitcite.generate", func() (err error) {
			for k := 0; k < sz.genciteBatch; k++ {
				if lc.cites[k], lc.froms[k], err = lc.repo.Generate(head, lc.paths[(at+k*stride)%len(lc.paths)]); err != nil {
					return err
				}
			}
			for k := range chains {
				if chains[k], err = lc.repo.GenerateChain(head, lc.paths[(at+k*stride)%len(lc.paths)]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return d, err
		}
		for k := 0; k < sz.genciteBatch; k++ {
			if err := lc.check(head, lc.paths[(at+k*stride)%len(lc.paths)], lc.cites[k], lc.froms[k]); err != nil {
				return d, err
			}
		}
		for k, chain := range chains {
			// The chain ends at the entry plain resolution picks.
			p := lc.paths[(at+k*stride)%len(lc.paths)]
			if _, wantFrom, _ := lc.want(p); len(chain) == 0 || chain[len(chain)-1].Path != wantFrom {
				return d, fmt.Errorf("chain of %s has %d links and does not end at %q", p, len(chain), wantFrom)
			}
		}
		return d, nil
	case localRender: // three formats over a batch of resolved citations
		head := lc.wt.Base()
		at := int(o.draw[0]) % len(lc.paths)
		in := make([]gitcite.Citation, sz.renderBatch)
		for k := range in {
			c, _, err := lc.repo.Generate(head, lc.paths[(at+k)%len(lc.paths)])
			if err != nil {
				return 0, err
			}
			in[k] = c
		}
		out := make([]string, 0, 3*len(in))
		d, err := e.call("format.render", func() error {
			for _, c := range in {
				for _, f := range []gitcite.Format{gitcite.FormatBibTeX, gitcite.FormatCFF, gitcite.FormatRIS} {
					s, err := gitcite.Render(c, f)
					if err != nil {
						return err
					}
					out = append(out, s)
				}
			}
			return nil
		})
		for k, s := range out {
			if err == nil && !strings.Contains(s, in[k/3].RepoName) {
				err = fmt.Errorf("rendering %d of %s does not mention the repository name", k%3, in[k/3].RepoName)
			}
		}
		return d, err
	case localCopyCite: // a donor package into a vendor slot, replacing what was there
		j := int(o.draw[0]) % len(lc.slotPkg)
		k := (lc.slotPkg[j] + 1 + int(o.draw[1])%(len(lc.pkgCite)-1)) % len(lc.pkgCite) // never the package already there
		dst := fmt.Sprintf("/vendor/slot%d", j)
		dCopy, err := e.call("gitcite.copycite", func() error {
			return lc.wt.CopyCite(lc.donor, lc.donorTip, fmt.Sprintf("/pkg%d", k), dst)
		})
		if err != nil {
			return dCopy, err
		}
		if lc.slotPkg[j] < 0 {
			lc.files += sz.copyFiles
		}
		lc.slotPkg[j] = k
		lc.model[dst], lc.model[dst+"/f00.txt"] = lc.pkgCite[k], lc.pkgFile[k]
		id, d, err := lc.commit(rec, "vendor "+dst, false)
		if err != nil {
			return dCopy + d, err
		}
		for _, p := range []string{dst + "/f00.txt", fmt.Sprintf("%s/f%02d.txt", dst, sz.copyFiles-1)} {
			got, from, gerr := lc.repo.Generate(id, p)
			if gerr != nil {
				return dCopy + d, gerr
			}
			if err := lc.check(id, p, got, from); err != nil {
				return dCopy + d, err
			}
		}
		return dCopy + d, nil
	case localMerge: // branch, diverge with a conflicting citation, MergeBranches
		x := lc.fx.cited[int(o.draw[0])%len(lc.fx.cited)]
		theirs := genCitation(rngFor(uint64(o.draw[1]), "theirs"), x)
		ours := genCitation(rngFor(uint64(o.draw[2]), "ours"), x)
		fa, fb := lc.fx.files[int(o.draw[1])%len(lc.fx.files)], lc.fx.files[int(o.draw[2])%len(lc.fx.files)]
		const branch = "feature"
		var res gitcite.MergeResult
		mergeOpts := gitcite.MergeOptions{
			Files:     gitcite.FileMergeOptions{},
			Citations: gitcite.CiteMergeOptions{Strategy: gitcite.StrategyTheirs},
		}
		t0 := time.Now()
		if err := lc.repo.VCS.CreateBranch(branch, lc.wt.Base()); err != nil {
			return 0, err
		}
		side, err := lc.repo.Checkout(branch)
		if err != nil {
			return 0, err
		}
		if err := side.ModifyCite(x, theirs); err != nil {
			return 0, err
		}
		if err := side.WriteFile(fa, fileBody(fa, o.draw[3])); err != nil {
			return 0, err
		}
		if _, err := side.Commit(lc.clk.commit("feature work")); err != nil {
			return 0, err
		}
		if err := lc.wt.ModifyCite(x, ours); err != nil {
			return 0, err
		}
		if fb != fa {
			if err := lc.wt.WriteFile(fb, fileBody(fb, o.draw[3]+1)); err != nil {
				return 0, err
			}
		}
		if _, err := lc.wt.Commit(lc.clk.commit("main work")); err != nil {
			return 0, err
		}
		rec.count("commits", 3) // both sides and the merge commit
		mergeOpts.Commit = lc.clk.commit("merge " + branch)
		if _, err := e.call("gitcite.merge", func() (err error) {
			res, err = lc.repo.MergeBranches("main", branch, mergeOpts)
			return err
		}); err != nil {
			return time.Since(t0), err
		}
		if err := lc.repo.VCS.Refs.Delete(refs.BranchRef(branch)); err != nil {
			return time.Since(t0), err
		}
		if lc.wt, err = lc.repo.Checkout("main"); err != nil {
			return time.Since(t0), err
		}
		d := time.Since(t0)
		lc.model[x] = theirs
		if res.FastForward || len(res.CiteConflicts) != 1 || res.CiteConflicts[0].Path != x {
			return d, fmt.Errorf("merge: fast-forward %v, citation conflicts %v; want one conflict on %s", res.FastForward, res.CiteConflicts, x)
		}
		got, from, err := lc.repo.Generate(res.CommitID, x)
		if err == nil {
			err = lc.check(res.CommitID, x, got, from)
		}
		return d, err
	default: // localCredit: the version's credit report
		head := lc.wt.Base()
		var rep *gitcite.CreditReport
		d, err := e.call("report.build", func() (err error) {
			rep, err = gitcite.BuildCreditReport(lc.repo, head)
			return err
		})
		if err == nil && (rep.TotalFiles != lc.files || len(rep.Entries) != len(lc.model)+1) {
			err = fmt.Errorf("credit report counts %d files and %d entries, want %d and %d", rep.TotalFiles, len(rep.Entries), lc.files, len(lc.model)+1)
		}
		return d, err
	}
}

// finish re-reads every author's head through a second, cold handle on the
// same directory and checks the whole model against it: what was
// acknowledged is what is on disk.
func (w *localAuthoring) finish() error {
	for _, lc := range w.authors {
		head := lc.wt.Base()
		cold, err := gitcite.OpenPackedRepository(lc.dir, lc.meta)
		if err != nil {
			return err
		}
		paths := make([]string, 0, len(lc.model))
		for p := range lc.model {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range append(paths, lc.fx.files[0]) {
			got, from, err := cold.Generate(head, p)
			if err == nil {
				err = lc.check(head, p, got, from)
			}
			if err != nil {
				cold.Close()
				return fmt.Errorf("%s reopened: %w", lc.meta.Name, err)
			}
		}
		if err := cold.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (w *localAuthoring) traced() *tracedView {
	if w.stacks == nil {
		return nil
	}
	return &tracedView{stacks: w.stacks}
}

func (w *localAuthoring) close() error {
	var first error
	for _, lc := range w.authors {
		if err := lc.repo.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *localAuthoring) probe() (*probeTarget, error) {
	lc := w.authors[0]
	return &probeTarget{
		repo: lc.repo, release: func() {}, tip: lc.wt.Base(), paths: lc.paths,
		dir: lc.dir, meta: lc.meta, source: lc.repo,
	}, nil
}
