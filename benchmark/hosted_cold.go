package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
)

// hostedCold is registry-style browsing: many small read-mostly projects
// (the Software Citation Station regime), four times as many as the
// open-repository LRU holds, asked for uniformly random historic versions by
// full commit ID. About three requests in four reopen a repository (pack
// open and index load), decode a citation function nobody has cached and
// read objects from the pack store — the work hosted-hot never does.
type hostedCold struct {
	hosted
	repos  []coldRepo
	mirror *gitcite.Repository // repos[0]'s mirror, kept for the probes
}

type coldRepo struct {
	name   string
	paths  []string
	hexes  []string // every version, oldest first
	oracle [][]expect
	tree   pageExpect // the tip's listing fits one page
}

// The op classes of hosted-cold, in the order classes lists them.
const (
	coldCite = iota
	coldTree
	coldRepoMeta
)

func (w *hostedCold) classes() []opClass {
	return []opClass{coldCite: {"cite", 80}, coldTree: {"tree", 10}, coldRepoMeta: {"repo_meta", 10}}
}

func (w *hostedCold) headline() []string { return []string{"cite"} }

func (w *hostedCold) setup(e *env) error {
	if err := w.boot(e); err != nil {
		return err
	}
	w.repos = make([]coldRepo, e.sz.coldRepos)
	// Two builders share the work (the repositories are independent), which
	// halves the longest set-up of the four workloads.
	const builders = 2
	errs := make([]error, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			c := w.sut.client(w.token)
			for i := b; i < len(w.repos) && errs[b] == nil; i += builders {
				errs[b] = w.build(c, i)
			}
		}(b)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// build generates repository i, pushes it and computes its oracle.
func (w *hostedCold) build(c *gitcite.Client, i int) error {
	e, sz := w.e, w.e.sz
	r := &w.repos[i]
	r.name = fmt.Sprintf("pkg%03d", i)
	mirror, meta, err := w.newMirror(r.name)
	if err != nil {
		return err
	}
	rng := rngFor(e.seed, "hosted-cold/"+r.name)
	fx := genFixture(rng, meta, sz.coldFiles, sz.coldDepth, sz.coldDepth, 0)
	clk := &clock{}
	wt, id, err := fx.populate(mirror, rng, clk)
	if err != nil {
		return err
	}
	commits := []gitcite.CommitID{id}
	for n := 1; n < sz.coldCommits; n++ {
		if id, err = fx.evolve(wt, rng, clk, n); err != nil {
			return err
		}
		commits = append(commits, id)
	}
	// One push carries the whole history, so the repository lands in a
	// single pack however often the LRU closes it during set-up.
	if err := w.host(c, mirror, r.name); err != nil {
		return err
	}
	r.paths = fx.files
	for _, id := range commits {
		r.hexes = append(r.hexes, id.String())
		exp, err := oracleFor(mirror, id, r.paths)
		if err != nil {
			return err
		}
		r.oracle = append(r.oracle, exp)
	}
	tip := commits[len(commits)-1]
	pages, err := treePages(c, mirror, tip, w.owner, r.name, r.hexes[len(r.hexes)-1], sz.treePage)
	if err != nil {
		return err
	}
	if len(pages) != 1 {
		return fmt.Errorf("hosted-cold: %s lists in %d pages, want 1", r.name, len(pages))
	}
	r.tree = pages[0]
	if i == 0 {
		w.mirror = mirror
	}
	return nil
}

// client i browses the repositories i, i+C, i+2C, …: clients share the
// platform's LRU but never a repository.
func (w *hostedCold) client(i int) (client, error) {
	cc := &coldClient{w: w, c: w.sut.client(w.token)}
	for j := i; j < len(w.repos); j += w.e.clients {
		cc.mine = append(cc.mine, &w.repos[j])
	}
	if len(cc.mine) == 0 {
		return nil, fmt.Errorf("hosted-cold: client %d has no repositories", i)
	}
	return cc, nil
}

type coldClient struct {
	w    *hostedCold
	c    *gitcite.Client
	mine []*coldRepo
}

func (cc *coldClient) do(o op, _ *recorder) (time.Duration, error) {
	w, c, e := cc.w, cc.c, cc.w.e
	r := cc.mine[int(o.draw[0])%len(cc.mine)]
	switch o.class {
	case coldCite: // uniform repository × uniform historic version × uniform path
		v := int(o.draw[1]) % len(r.hexes)
		i := int(o.draw[2]) % len(r.paths)
		return w.cite(c, r.name, r.hexes[v], r.paths[i], r.oracle[v][i])
	case coldTree: // the tip's listing
		var got hosting.TreePage
		d, err := e.call("extension.tree", func() (err error) {
			got, err = c.TreePage(w.owner, r.name, r.hexes[len(r.hexes)-1], "", e.sz.treePage)
			return err
		})
		if err == nil {
			err = r.tree.check(got)
		}
		return d, err
	default: // coldRepoMeta: branches and tips
		var got hosting.RepoResponse
		d, err := e.call("extension.meta", func() (err error) {
			got, err = c.GetRepo(w.owner, r.name)
			return err
		})
		if err == nil && (len(got.Branches) != 1 || got.Tips["main"] != r.hexes[len(r.hexes)-1]) {
			err = fmt.Errorf("%s: branches %v tips %v, want main at %s", r.name, got.Branches, got.Tips, r.hexes[len(r.hexes)-1])
		}
		return d, err
	}
}

func (w *hostedCold) probe() (*probeTarget, error) {
	t, err := w.hostedProbe(w.repos[0].name, w.mirror, w.repos[0].paths)
	if err != nil {
		return nil, err
	}
	for _, r := range w.repos {
		t.others = append(t.others, r.name)
	}
	return t, nil
}
