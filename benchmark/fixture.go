package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"github.com/gitcite/gitcite"
)

// rngFor derives an independent generator from the run seed and a label, so
// every client, repository and workload draws from its own stream and adding
// a draw in one place never shifts another's inputs.
func rngFor(seed uint64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// fixtureEpoch anchors every generated commit timestamp, so commit IDs are a
// function of the seed alone and the traced and untraced passes of one run
// serve byte-identical repositories.
var fixtureEpoch = time.Unix(1_600_000_000, 0).UTC()

// clock hands out strictly increasing commit times, one second apart.
type clock struct{ n int64 }

func (c *clock) next() time.Time {
	c.n++
	return fixtureEpoch.Add(time.Duration(c.n) * time.Second)
}

func (c *clock) commit(msg string) gitcite.CommitOptions {
	return gitcite.CommitOptions{Author: gitcite.Sig("bench", "bench@git.example", c.next()), Message: msg}
}

// fixture is one generated project: a spine of nested directories with files
// hanging off every level, and explicit citations on the spine directories
// plus a sample of files. Everything else resolves to its closest cited
// ancestor, which is what makes path depth matter to GenCite.
type fixture struct {
	meta  gitcite.Meta
	files []string // sorted
	spine []string // spine directories, shallowest first
	cited []string // paths with an explicit citation ("/" excluded), sorted
	deep  []string // files at least deepMin directories below the root
}

// genFixture lays out files over depth spine directories: file i sits
// i mod (depth+1) directories down the spine, half of them one side
// directory further, so every level is populated and the deepest files are
// depth+1 directories below the root. citedFiles files get a citation of
// their own on top of the spine directories.
func genFixture(rng *rand.Rand, meta gitcite.Meta, files, depth, citedFiles, deepMin int) *fixture {
	f := &fixture{meta: meta}
	dir := ""
	for d := 1; d <= depth; d++ {
		dir += fmt.Sprintf("/s%d", d)
		f.spine = append(f.spine, dir)
	}
	for i := 0; i < files; i++ {
		level := i % (depth + 1)
		dirs := level
		p := ""
		if level > 0 {
			p = f.spine[level-1]
		}
		if rng.IntN(2) == 0 {
			p += fmt.Sprintf("/m%d", rng.IntN(4))
			dirs++
		}
		p += fmt.Sprintf("/f%04d.txt", i)
		f.files = append(f.files, p)
		if dirs >= deepMin {
			f.deep = append(f.deep, p)
		}
	}
	sort.Strings(f.files)
	sort.Strings(f.deep)
	f.cited = append(f.cited, f.spine...)
	for _, i := range rng.Perm(len(f.files))[:min(citedFiles, len(f.files))] {
		f.cited = append(f.cited, f.files[i])
	}
	sort.Strings(f.cited)
	return f
}

// uncited returns the files that carry no citation of their own, sorted —
// the paths the edit workloads may AddCite to.
func (f *fixture) uncited() []string {
	has := make(map[string]bool, len(f.cited))
	for _, p := range f.cited {
		has[p] = true
	}
	var out []string
	for _, p := range f.files {
		if !has[p] {
			out = append(out, p)
		}
	}
	return out
}

var (
	givenNames  = []string{"Ada", "Grace", "Edsger", "Barbara", "Donald", "Leslie", "Tony", "Frances"}
	familyNames = []string{"Chen", "Davidson", "Katz", "Wagg", "Broekgaarden", "Hopper", "Liskov", "Lamport"}
)

// genCitation builds a complete citation whose fields derive from tag and
// two draws; the same inputs give the same citation.
func genCitation(rng *rand.Rand, tag string) gitcite.Citation {
	authors := make([]string, 1+rng.IntN(3))
	for i := range authors {
		authors[i] = givenNames[rng.IntN(len(givenNames))] + " " + familyNames[rng.IntN(len(familyNames))]
	}
	slug := strings.Trim(strings.ReplaceAll(tag, "/", "-"), "-")
	return gitcite.Citation{
		RepoName:   "lib-" + slug,
		Owner:      strings.ToLower(familyNames[rng.IntN(len(familyNames))]),
		URL:        "https://git.example/src/" + slug,
		DOI:        fmt.Sprintf("10.5555/bench.%06d", rng.IntN(1_000_000)),
		Version:    fmt.Sprintf("%d.%d.%d", 1+rng.IntN(4), rng.IntN(10), rng.IntN(20)),
		License:    "MIT",
		AuthorList: authors,
		Note:       "imported for " + tag,
	}
}

// fileBody is a small text file whose contents derive from its path and one
// draw: a few hundred bytes, the size of the source files the paper's
// demonstration repositories hold.
func fileBody(path string, draw uint32) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n// revision %08x\n", path, draw)
	for i := uint32(0); i < 4+draw%5; i++ {
		fmt.Fprintf(&b, "line %d of %s: %08x %08x\n", i, path, draw*2654435761+i, draw^(i*40503))
	}
	return []byte(b.String())
}

// populate writes the whole fixture into a fresh worktree of repo and
// commits it as the first version.
func (f *fixture) populate(repo *gitcite.Repository, rng *rand.Rand, clk *clock) (*gitcite.Worktree, gitcite.CommitID, error) {
	wt, err := repo.Checkout("main")
	if err != nil {
		return nil, gitcite.CommitID{}, err
	}
	for _, p := range f.files {
		if err := wt.WriteFile(p, fileBody(p, rng.Uint32())); err != nil {
			return nil, gitcite.CommitID{}, err
		}
	}
	for _, p := range f.cited {
		if err := wt.AddCite(p, genCitation(rng, p)); err != nil {
			return nil, gitcite.CommitID{}, fmt.Errorf("fixture %s: AddCite %s: %w", f.meta.Name, p, err)
		}
	}
	id, err := wt.Commit(clk.commit("import " + f.meta.Name))
	return wt, id, err
}

// evolve records one follow-up version: two edited files and, on every
// second call, a modified citation, so successive versions carry different
// citation functions.
func (f *fixture) evolve(wt *gitcite.Worktree, rng *rand.Rand, clk *clock, n int) (gitcite.CommitID, error) {
	for k := 0; k < 2; k++ {
		p := f.files[rng.IntN(len(f.files))]
		if err := wt.WriteFile(p, fileBody(p, rng.Uint32())); err != nil {
			return gitcite.CommitID{}, err
		}
	}
	if n%2 == 1 {
		p := f.cited[rng.IntN(len(f.cited))]
		if err := wt.ModifyCite(p, genCitation(rng, fmt.Sprintf("%s@%d", p, n))); err != nil {
			return gitcite.CommitID{}, err
		}
	}
	return wt.Commit(clk.commit(fmt.Sprintf("revision %d", n)))
}
