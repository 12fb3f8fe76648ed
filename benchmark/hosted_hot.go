package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// hostedHot is the browser-extension read path with every cache warm: one
// repository whose versions all fit the per-repository function cache (512),
// whose objects fit the decoded-object cache (4 096) and which never leaves
// the open-repository LRU (64). extension, net/http, the hosting handlers
// and core resolution do the work; the pack store does next to none.
type hostedHot struct {
	hosted
	fx     *fixture
	name   string
	mirror *gitcite.Repository

	paths   []string // every file and spine directory: what cite may ask
	deep    []int    // indexes into paths at least hotDeepMin directories down
	hexes   []string // full commit IDs, oldest first; the last is main's tip
	oracle  [][]expect
	chains  []chainExpect
	pages   []pageExpect
	citeRaw []byte // citation.cite at the tip
	etag    string
}

type chainExpect struct {
	path  string
	chain []gitcite.PathCitation
}

// pageExpect is one page of the tip's tree listing as set-up saw it, already
// checked entry by entry against the mirror's tree.
type pageExpect struct {
	cursor, next string
	n            int
	first        string
}

// The op classes of hosted-hot, in the order classes lists them.
const (
	hotCite = iota
	hotCiteDeep
	hotCiteBibtex
	hotChain
	hotTree
	hotCiteFile
	hotCond
)

func (w *hostedHot) classes() []opClass {
	return []opClass{
		hotCite: {"cite", 40}, hotCiteDeep: {"cite_deep", 20}, hotCiteBibtex: {"cite_bibtex", 5},
		hotChain: {"chain", 10}, hotTree: {"tree", 10}, hotCiteFile: {"citefile", 5}, hotCond: {"cond", 10},
	}
}

func (w *hostedHot) headline() []string { return []string{"cite", "cite_deep", "cite_bibtex"} }

func (w *hostedHot) setup(e *env) error {
	if err := w.boot(e); err != nil {
		return err
	}
	sz := e.sz
	w.name = "hot"
	mirror, meta, err := w.newMirror(w.name)
	if err != nil {
		return err
	}
	w.mirror = mirror
	rng := rngFor(e.seed, "hosted-hot/fixture")
	w.fx = genFixture(rng, meta, sz.hotFiles, sz.hotDepth, sz.hotCitedFiles, sz.hotDeepMin)
	clk := &clock{}
	wt, id, err := w.fx.populate(mirror, rng, clk)
	if err != nil {
		return err
	}
	commits := []gitcite.CommitID{id}
	for n := 1; n < sz.hotCommits; n++ {
		if id, err = w.fx.evolve(wt, rng, clk, n); err != nil {
			return err
		}
		commits = append(commits, id)
	}
	c := w.sut.client(w.token)
	if err := w.host(c, mirror, w.name); err != nil {
		return err
	}

	w.paths = append(append([]string{}, w.fx.files...), w.fx.spine...)
	isDeep := make(map[string]bool, len(w.fx.deep))
	for _, p := range w.fx.deep {
		isDeep[p] = true
	}
	for i, p := range w.paths {
		if isDeep[p] {
			w.deep = append(w.deep, i)
		}
	}
	if len(w.deep) == 0 {
		return fmt.Errorf("hosted-hot: no path %d directories deep", sz.hotDeepMin)
	}
	for _, id := range commits {
		w.hexes = append(w.hexes, id.String())
		exp, err := oracleFor(mirror, id, w.paths)
		if err != nil {
			return err
		}
		w.oracle = append(w.oracle, exp)
	}
	tip := commits[len(commits)-1]
	for _, i := range rng.Perm(len(w.paths))[:min(sz.chainPaths, len(w.paths))] {
		chain, err := mirror.GenerateChain(tip, w.paths[i])
		if err != nil {
			return err
		}
		w.chains = append(w.chains, chainExpect{w.paths[i], chain})
	}
	if w.citeRaw, err = mirror.CiteFileBytes(tip); err != nil {
		return err
	}
	got, etag, _, err := c.CiteFileIfChanged(w.owner, w.name, "main", "")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.citeRaw) || etag == "" {
		return fmt.Errorf("hosted-hot: served citation.cite differs from the mirror's (etag %q)", etag)
	}
	w.etag = etag
	w.pages, err = treePages(c, mirror, tip, w.owner, w.name, "main", sz.treePage)
	return err
}

// treePages walks a revision's tree listing page by page, checks every entry
// and cursor against the local repository's tree, and returns the pages for
// later random access.
func treePages(c *gitcite.Client, local *gitcite.Repository, commit gitcite.CommitID, owner, name, rev string, limit int) ([]pageExpect, error) {
	treeID, err := local.VCS.TreeOf(commit)
	if err != nil {
		return nil, err
	}
	fn, err := local.ResolvedFunctionAt(commit)
	if err != nil {
		return nil, err
	}
	type row struct {
		path         string
		isDir, cited bool
	}
	var want []row
	err = vcs.WalkTree(local.VCS.Objects, treeID, func(p string, e object.TreeEntry) error {
		if p != "/"+gitcite.CiteFileName {
			want = append(want, row{p, e.IsDir(), fn.Has(p)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pages []pageExpect
	cursor, seen := "", 0
	for {
		page, err := c.TreePage(owner, name, rev, cursor, limit)
		if err != nil {
			return nil, err
		}
		for i, ent := range page.Entries {
			if seen+i >= len(want) {
				return nil, fmt.Errorf("tree %s: listing longer than the %d entries of the local tree", name, len(want))
			}
			if w := want[seen+i]; ent.Path != w.path || ent.IsDir != w.isDir || ent.Cited != w.cited {
				return nil, fmt.Errorf("tree %s: entry %d is %+v, want %+v", name, seen+i, ent, w)
			}
		}
		wantNext := ""
		if seen+len(page.Entries) < len(want) {
			wantNext = strconv.Itoa(seen + len(page.Entries))
		}
		if page.NextCursor != wantNext || len(page.Entries) == 0 {
			return nil, fmt.Errorf("tree %s: page at %q has %d entries and next cursor %q, want %q", name, cursor, len(page.Entries), page.NextCursor, wantNext)
		}
		pages = append(pages, pageExpect{cursor: cursor, next: page.NextCursor, n: len(page.Entries), first: page.Entries[0].Path})
		seen += len(page.Entries)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if seen != len(want) {
		return nil, fmt.Errorf("tree %s: listed %d entries, local tree has %d", name, seen, len(want))
	}
	return pages, nil
}

func (x pageExpect) check(page hosting.TreePage) error {
	if len(page.Entries) != x.n || page.NextCursor != x.next {
		return fmt.Errorf("tree page at %q: %d entries, next %q; want %d, %q", x.cursor, len(page.Entries), page.NextCursor, x.n, x.next)
	}
	if page.Entries[0].Path != x.first {
		return fmt.Errorf("tree page at %q starts at %q, want %q", x.cursor, page.Entries[0].Path, x.first)
	}
	return nil
}

func checkChain(got, want []gitcite.PathCitation) error {
	if len(got) != len(want) {
		return fmt.Errorf("chain has %d links, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Path != want[i].Path || !got[i].Citation.Equal(want[i].Citation) {
			return fmt.Errorf("chain link %d is %s %v, want %s %v", i, got[i].Path, got[i].Citation, want[i].Path, want[i].Citation)
		}
	}
	return nil
}

func (w *hostedHot) client(int) (client, error) {
	return &hotClient{w: w, c: w.sut.client(w.token)}, nil
}

type hotClient struct {
	w *hostedHot
	c *gitcite.Client
}

func (hc *hotClient) do(o op, _ *recorder) (time.Duration, error) {
	w, c, e := hc.w, hc.c, hc.w.e
	tip := len(w.hexes) - 1
	switch o.class {
	case hotCite: // any path at the branch tip
		i := int(o.draw[0]) % len(w.paths)
		return w.cite(c, w.name, "main", w.paths[i], w.oracle[tip][i])
	case hotCiteDeep: // a deep path at any version, addressed by full commit ID
		i := w.deep[int(o.draw[0])%len(w.deep)]
		v := int(o.draw[1]) % len(w.hexes)
		return w.cite(c, w.name, w.hexes[v], w.paths[i], w.oracle[v][i])
	case hotCiteBibtex: // generate and render in one round trip
		i := int(o.draw[0]) % len(w.paths)
		var got string
		d, err := e.call("extension.cite", func() (err error) {
			got, err = c.GenCiteRendered(w.owner, w.name, "main", w.paths[i], "bibtex")
			return err
		})
		if err == nil {
			want, rerr := gitcite.Render(*w.oracle[tip][i].cite, gitcite.FormatBibTeX)
			if rerr != nil || got != want {
				err = fmt.Errorf("rendered citation of %s differs from the local rendering (%v)", w.paths[i], rerr)
			}
		}
		return d, err
	case hotChain: // the whole-path semantics
		x := w.chains[int(o.draw[0])%len(w.chains)]
		var got []gitcite.PathCitation
		d, err := e.call("extension.chain", func() (err error) {
			got, err = c.Chain(w.owner, w.name, "main", x.path)
			return err
		})
		if err == nil {
			err = checkChain(got, x.chain)
		}
		return d, err
	case hotTree: // one page of the listing
		x := w.pages[int(o.draw[0])%len(w.pages)]
		var got hosting.TreePage
		d, err := e.call("extension.tree", func() (err error) {
			got, err = c.TreePage(w.owner, w.name, "main", x.cursor, e.sz.treePage)
			return err
		})
		if err == nil {
			err = x.check(got)
		}
		return d, err
	case hotCiteFile: // the raw citation.cite
		var got []byte
		d, err := e.call("extension.citefile", func() (err error) {
			got, err = c.CiteFile(w.owner, w.name, "main")
			return err
		})
		if err == nil && !bytes.Equal(got, w.citeRaw) {
			err = fmt.Errorf("citation.cite differs from the mirror's (%d bytes, want %d)", len(got), len(w.citeRaw))
		}
		return d, err
	default: // hotCond: revalidation that must answer 304
		var notModified bool
		d, err := e.call("extension.cond", func() (err error) {
			_, _, notModified, err = c.CiteFileIfChanged(w.owner, w.name, "main", w.etag)
			return err
		})
		if err == nil && !notModified {
			err = fmt.Errorf("If-None-Match %s answered with a body, want 304", w.etag)
		}
		return d, err
	}
}

func (w *hostedHot) probe() (*probeTarget, error) {
	return w.hostedProbe(w.name, w.mirror, w.paths)
}
