package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/gitcite/gitcite/internal/vcs"
)

// randModel generates a random tree plus a well-formed citation function
// over it, for property tests of the model invariants (DESIGN.md I1-I5).
type randModel struct {
	tree  *PathSet
	fn    *Function
	files []string
}

func genModel(r *rand.Rand) randModel {
	nDirs := 1 + r.Intn(5)
	dirs := []string{"/"}
	for i := 0; i < nDirs; i++ {
		parent := dirs[r.Intn(len(dirs))]
		name := fmt.Sprintf("d%d", i)
		if parent == "/" {
			dirs = append(dirs, "/"+name)
		} else {
			dirs = append(dirs, parent+"/"+name)
		}
	}
	nFiles := 1 + r.Intn(8)
	fileSet := map[string]bool{}
	for i := 0; i < nFiles; i++ {
		parent := dirs[r.Intn(len(dirs))]
		p := parent + "/" + fmt.Sprintf("f%d.txt", i)
		if parent == "/" {
			p = fmt.Sprintf("/f%d.txt", i)
		}
		fileSet[p] = true
	}
	files := make([]string, 0, len(fileSet))
	for p := range fileSet {
		files = append(files, p)
	}
	tree := MustPathSet(files...)

	fn := MustNewFunction(Citation{
		Owner: "owner", RepoName: "repo", URL: "https://x/repo",
		Version: "1", CommittedDate: time.Unix(int64(r.Intn(1e9)), 0).UTC(),
	})
	// Attach citations to a random subset of existing paths.
	paths := tree.Paths()
	for _, p := range paths {
		if p == "/" || r.Intn(3) != 0 {
			continue
		}
		c := Citation{Owner: "o-" + p, RepoName: "r", URL: "u", Version: "1"}
		if err := fn.Add(tree, p, c); err != nil {
			panic(err)
		}
	}
	return randModel{tree: tree, fn: fn, files: files}
}

func modelValues(args []reflect.Value, r *rand.Rand) {
	args[0] = reflect.ValueOf(genModel(r))
}

// I1 + I2: Cite is total and equals the nearest ancestor-or-self entry;
// ResolveKey gives the same answer through an interned key, and
// ResolveChain lists every ancestor-or-self entry, root first.
func TestQuickResolveTotalAndClosest(t *testing.T) {
	f := func(m randModel) bool {
		var keys PathTable
		for _, p := range m.tree.Paths() {
			got, from, err := m.fn.Resolve(p)
			if err != nil {
				return false
			}
			// from must be an ancestor-or-self with an explicit entry...
			if !vcs.IsAncestorPath(from, p) || !m.fn.Has(from) {
				return false
			}
			// ...and no closer ancestor may carry an entry.
			for q := p; q != from; q = vcs.ParentPath(q) {
				if m.fn.Has(q) {
					return false
				}
			}
			want, err := m.fn.Get(from)
			if err != nil || !got.Equal(want) {
				return false
			}

			k, err := keys.Intern(p)
			if err != nil {
				return false
			}
			kc, kfrom, err := m.fn.ResolveKey(k)
			if err != nil || kfrom != from || !kc.Equal(want) {
				return false
			}

			chain, err := m.fn.ResolveChain(p)
			if err != nil {
				return false
			}
			var cited []string // ancestors-or-self with an entry, leaf first
			for q := p; ; q = vcs.ParentPath(q) {
				if m.fn.Has(q) {
					cited = append(cited, q)
				}
				if q == "/" {
					break
				}
			}
			if len(chain) != len(cited) || chain[len(chain)-1].Path != from {
				return false
			}
			for i, link := range chain {
				c, err := m.fn.Get(link.Path)
				if link.Path != cited[len(cited)-1-i] || err != nil || !link.Citation.Equal(c) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// I3: renaming a directory preserves Cite modulo the path isomorphism.
func TestQuickRenamePreservesResolution(t *testing.T) {
	f := func(m randModel) bool {
		// Pick a random non-root directory that exists; skip if none.
		var dirs []string
		for _, p := range m.tree.Paths() {
			if p != "/" && m.tree.IsDir(p) {
				dirs = append(dirs, p)
			}
		}
		if len(dirs) == 0 {
			return true
		}
		src := dirs[0]
		dst := "/renamed-away"

		before := map[string]Citation{}
		for _, p := range m.tree.Paths() {
			c, _, err := m.fn.Resolve(p)
			if err != nil {
				return false
			}
			before[p] = c
		}
		moved := m.fn.Clone()
		if err := moved.Rename(src, dst); err != nil {
			return false
		}
		for _, p := range m.tree.Paths() {
			q := p
			if vcs.IsAncestorPath(src, p) {
				var err error
				q, err = vcs.RebasePath(p, src, dst)
				if err != nil {
					return false
				}
			}
			got, _, err := moved.Resolve(q)
			if err != nil {
				return false
			}
			if !got.Equal(before[p]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// I5 (no-conflict case): merging two functions with disjoint non-root
// domains and a shared root is the union, and is commutative.
func TestQuickMergeUnionCommutative(t *testing.T) {
	f := func(m randModel) bool {
		root := m.fn.Root()
		a := MustNewFunction(root)
		b := MustNewFunction(root)
		// Split m.fn's non-root entries alternately between a and b.
		i := 0
		for _, pc := range m.fn.ActiveDomain() {
			if pc.Path == "/" {
				continue
			}
			target := a
			if i%2 == 1 {
				target = b
			}
			if err := target.Set(m.tree, pc.Path, pc.Citation); err != nil {
				return false
			}
			i++
		}
		ab, err := Merge(a, b, m.tree, MergeOptions{})
		if err != nil {
			return false
		}
		ba, err := Merge(b, a, m.tree, MergeOptions{})
		if err != nil {
			return false
		}
		return len(ab.Conflicts) == 0 && len(ba.Conflicts) == 0 &&
			ab.Function.Equal(ba.Function) && ab.Function.Equal(m.fn)
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// I4 as a property: migrating a random subtree preserves Cite for every
// node under it.
func TestQuickMigratePreservesCite(t *testing.T) {
	f := func(m randModel) bool {
		var dirs []string
		for _, p := range m.tree.Paths() {
			if p != "/" && m.tree.IsDir(p) {
				dirs = append(dirs, p)
			}
		}
		if len(dirs) == 0 {
			return true
		}
		src := dirs[len(dirs)/2]

		// Destination tree: the same files rebased under /import.
		var dstFiles []string
		for _, fp := range m.files {
			if vcs.IsAncestorPath(src, fp) {
				np, err := vcs.RebasePath(fp, src, "/import")
				if err != nil {
					return false
				}
				dstFiles = append(dstFiles, np)
			}
		}
		if len(dstFiles) == 0 {
			return true // empty dir: nothing to check
		}
		dstTree := MustPathSet(dstFiles...)
		dst := MustNewFunction(Citation{Owner: "d", RepoName: "d", URL: "u", Version: "1"})
		if _, err := dst.MigrateSubtree(m.fn, src, "/import", dstTree, CopyOptions{}); err != nil {
			return false
		}
		for _, fp := range m.files {
			if !vcs.IsAncestorPath(src, fp) {
				continue
			}
			np, _ := vcs.RebasePath(fp, src, "/import")
			want, _, err := m.fn.Resolve(fp)
			if err != nil {
				return false
			}
			got, _, err := dst.Resolve(np)
			if err != nil {
				return false
			}
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Merging a function with itself is the identity (no conflicts): union
// idempotence, a corollary of I5.
func TestQuickMergeIdempotent(t *testing.T) {
	f := func(m randModel) bool {
		res, err := Merge(m.fn, m.fn.Clone(), m.tree, MergeOptions{})
		if err != nil {
			return false
		}
		return len(res.Conflicts) == 0 && res.Function.Equal(m.fn)
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Prune then Validate always succeeds against the pruning tree (part of I5).
func TestQuickPruneRestoresValidity(t *testing.T) {
	f := func(m randModel) bool {
		// Shrink the tree to roughly half its files.
		var kept []string
		for i, fp := range m.files {
			if i%2 == 0 {
				kept = append(kept, fp)
			}
		}
		if len(kept) == 0 {
			kept = m.files[:1]
		}
		smaller := MustPathSet(kept...)
		g := m.fn.Clone()
		g.Prune(smaller)
		return g.Validate(smaller) == nil
	}
	cfg := &quick.Config{MaxCount: 60, Values: modelValues}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyAsk: "ask", StrategyOurs: "ours", StrategyTheirs: "theirs",
		StrategyNewest: "newest", StrategyThreeWay: "three-way", Strategy(99): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestPathSetBasics(t *testing.T) {
	ps := MustPathSet("/a/b/c.txt", "/a/d.txt", "/top.txt")
	for _, p := range []string{"/", "/a", "/a/b", "/a/b/c.txt", "/top.txt"} {
		if !ps.Exists(p) {
			t.Errorf("Exists(%q) = false", p)
		}
	}
	if ps.Exists("/nope") || ps.IsDir("/top.txt") || !ps.IsDir("/a/b") {
		t.Error("PathSet classification wrong")
	}
	wantFiles := []string{"/a/b/c.txt", "/a/d.txt", "/top.txt"}
	if !reflect.DeepEqual(ps.Files(), wantFiles) {
		t.Errorf("Files = %v", ps.Files())
	}
	if _, err := NewPathSet("/"); err == nil {
		t.Error("root as file accepted")
	}
	if _, err := NewPathSet("/a", "/a/b"); err == nil {
		t.Error("file/dir clash accepted")
	}
	sub, err := ps.Subtree("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub.Files(), []string{"/b/c.txt", "/d.txt"}) {
		t.Errorf("Subtree files = %v", sub.Files())
	}
	if _, err := ps.Subtree("/ghost"); err == nil {
		t.Error("subtree of missing root accepted")
	}
}

func TestUnionTree(t *testing.T) {
	a := MustPathSet("/a.txt")
	b := MustPathSet("/b/c.txt")
	u := UnionTree{A: a, B: b}
	for _, p := range []string{"/a.txt", "/b/c.txt", "/b", "/"} {
		if !u.Exists(p) {
			t.Errorf("union missing %q", p)
		}
	}
	if !u.IsDir("/b") || u.IsDir("/a.txt") {
		t.Error("union IsDir wrong")
	}
}

func TestAnyTree(t *testing.T) {
	at := AnyTree()
	if !at.Exists("/literally/anything") || !at.Exists("/") {
		t.Error("AnyTree rejected a path")
	}
	if !at.IsDir("/") || !at.IsDir("/dir") || at.IsDir("/file.txt") {
		t.Error("AnyTree IsDir heuristic wrong")
	}
	if !strings.Contains(fmt.Sprintf("%T", at), "universeTree") {
		t.Errorf("AnyTree type = %T", at)
	}
}
