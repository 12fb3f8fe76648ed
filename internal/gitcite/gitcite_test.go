package gitcite

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

func testMeta() Meta {
	return Meta{Owner: "Leshang", Name: "P1", URL: "https://github.com/leshang/P1", License: "MIT"}
}

func opts(name string, unix int64) vcs.CommitOptions {
	return vcs.CommitOptions{
		Author:  vcs.Sig(name, name+"@upenn.edu", time.Unix(unix, 0)),
		Message: "commit by " + name,
	}
}

func cite(owner string) core.Citation {
	return core.Citation{
		Owner: owner, RepoName: "ext-" + owner,
		URL: "https://github.com/" + owner, Version: "1",
		AuthorList: []string{owner},
	}
}

func newRepo(t *testing.T) *Repo {
	t.Helper()
	r, err := NewMemoryRepo(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMetaValidate(t *testing.T) {
	if err := (Meta{}).Validate(); err == nil {
		t.Error("empty meta accepted")
	}
	if err := (Meta{Owner: "o"}).Validate(); err == nil {
		t.Error("meta without name accepted")
	}
	if err := testMeta().Validate(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	if _, err := NewMemoryRepo(Meta{}); err == nil {
		t.Error("NewMemoryRepo with bad meta succeeded")
	}
}

func TestCommitWritesCitationFile(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/src/main.go", []byte("package main\n")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("leshang", 1_500_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsCitationEnabled(c1) {
		t.Fatal("committed version lacks citation.cite")
	}
	fn, err := r.FunctionAt(c1)
	if err != nil {
		t.Fatal(err)
	}
	root := fn.Root()
	if root.Owner != "Leshang" || root.RepoName != "P1" {
		t.Errorf("root = %+v", root)
	}
	if root.CommittedDate.IsZero() {
		t.Error("root citation not stamped with commit date")
	}
	if root.Version == UnreleasedVersion {
		t.Error("committed root still marked unreleased")
	}
	// The raw file parses and contains the root key.
	raw, err := r.CiteFileBytes(c1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"/"`) {
		t.Errorf("cite file:\n%s", raw)
	}
}

func TestWorktreeCitationOps(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/lib/a.go", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/lib/b.go", []byte("b")); err != nil {
		t.Fatal(err)
	}

	// AddCite on a directory and a file.
	if err := wt.AddCite("/lib", cite("libOwner")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/lib/a.go", cite("aOwner")); err != nil {
		t.Fatal(err)
	}
	// GenCite resolves through closest ancestor.
	got, from, err := wt.GenCite("/lib/b.go")
	if err != nil || got.Owner != "libOwner" || from != "/lib" {
		t.Errorf("GenCite = %+v from %q, %v", got, from, err)
	}
	// ModifyCite.
	if err := wt.ModifyCite("/lib", cite("newLibOwner")); err != nil {
		t.Fatal(err)
	}
	// DelCite.
	if err := wt.DelCite("/lib/a.go"); err != nil {
		t.Fatal(err)
	}
	got, _, _ = wt.GenCite("/lib/a.go")
	if got.Owner != "newLibOwner" {
		t.Errorf("after DelCite: %+v", got)
	}
	// AddCite to missing path fails.
	if err := wt.AddCite("/ghost", cite("x")); !errors.Is(err, core.ErrPathNotInTree) {
		t.Errorf("AddCite missing = %v", err)
	}

	// Commit persists all of it.
	c1, err := wt.Commit(opts("leshang", 1_500_000_000))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := r.FunctionAt(c1)
	if err != nil {
		t.Fatal(err)
	}
	libC, err := fn.Get("/lib")
	if err != nil || libC.Owner != "newLibOwner" {
		t.Errorf("persisted /lib = %+v, %v", libC, err)
	}
}

func TestCitationFileIsSystemManaged(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/citation.cite", []byte("{}")); err == nil {
		t.Error("direct citation.cite write accepted")
	}
}

func TestDeleteFilePrunesCitationAtCommit(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/doomed.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/kept.txt", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/doomed.txt", cite("dOwner")); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Commit(opts("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := wt.RemoveFile("/doomed.txt"); err != nil {
		t.Fatal(err)
	}
	c2, err := wt.Commit(opts("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := r.FunctionAt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Has("/doomed.txt") {
		t.Error("citation for deleted file survived the commit")
	}
}

func TestMoveRekeysCitations(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	for p, d := range map[string]string{"/old/f1.go": "1", "/old/sub/f2.go": "2", "/other.txt": "o"} {
		if err := wt.WriteFile(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/old", cite("dirOwner")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/old/sub/f2.go", cite("leafOwner")); err != nil {
		t.Fatal(err)
	}
	if err := wt.Move("/old", "/renamed"); err != nil {
		t.Fatal(err)
	}
	// Files moved.
	if _, err := wt.ReadFile("/renamed/sub/f2.go"); err != nil {
		t.Errorf("moved file unreadable: %v", err)
	}
	if _, err := wt.ReadFile("/old/f1.go"); err == nil {
		t.Error("old file path still readable")
	}
	// Citations rekeyed.
	got, from, err := wt.GenCite("/renamed/f1.go")
	if err != nil || got.Owner != "dirOwner" || from != "/renamed" {
		t.Errorf("GenCite after move = %+v from %q, %v", got, from, err)
	}
	leaf, _, _ := wt.GenCite("/renamed/sub/f2.go")
	if leaf.Owner != "leafOwner" {
		t.Errorf("leaf after move = %+v", leaf)
	}
	// Move errors.
	if err := wt.Move("/ghost", "/x"); err == nil {
		t.Error("move of missing path accepted")
	}
	if err := wt.Move("/other.txt", "/renamed/f1.go"); err == nil {
		t.Error("move onto existing file accepted")
	}
	c1, err := wt.Commit(opts("a", 10))
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := r.FunctionAt(c1)
	if !fn.Has("/renamed") || fn.Has("/old") {
		t.Errorf("persisted paths = %v", fn.Paths())
	}
}

func TestGenerateFillsRootVersionInfo(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("leshang", 1_535_942_120))
	if err != nil {
		t.Fatal(err)
	}
	got, from, err := r.Generate(c1, "/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if from != "/" {
		t.Errorf("from = %q", from)
	}
	if got.CommitID != c1.Short() {
		t.Errorf("generated commitID = %q, want %q", got.CommitID, c1.Short())
	}
	if got.CommittedDate.IsZero() {
		t.Error("generated citation lacks a date")
	}
	// Non-root entries keep their stored (source) version info.
	wt2, _ := r.Checkout("main")
	imported := cite("ChenLi")
	imported.CommitID = "5cc951e"
	if err := wt2.AddCite("/f.txt", imported); err != nil {
		t.Fatal(err)
	}
	c2, err := wt2.Commit(opts("leshang", 1_535_942_200))
	if err != nil {
		t.Fatal(err)
	}
	got, from, err = r.Generate(c2, "/f.txt")
	if err != nil || from != "/f.txt" {
		t.Fatal(err)
	}
	if got.CommitID != "5cc951e" {
		t.Errorf("stored commitID overwritten: %q", got.CommitID)
	}
}

func TestGenerateChain(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/a/b/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/a", cite("aOwner")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("x", 5))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := r.GenerateChain(c1, "/a/b/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Path != "/" || chain[1].Path != "/a" {
		t.Errorf("chain = %+v", chain)
	}
}

// TestGenerateChainMatchesGenerate: on every path of every version, a
// chain's root link is what Generate gives for "/" — commit ID and date
// filled in — and its last link is what Generate gives for the path.
func TestGenerateChainMatchesGenerate(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	for _, p := range []string{"/a/b/f.txt", "/a/g.txt", "/top.txt"} {
		if err := wt.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wt.AddCite("/a", cite("aOwner")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("x", 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/a/b/f.txt", cite("fOwner")); err != nil {
		t.Fatal(err)
	}
	c2, err := wt.Commit(opts("x", 6))
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/", "/a", "/a/b", "/a/b/f.txt", "/a/g.txt", "/top.txt"}
	for _, v := range []object.ID{c1, c2} {
		root, _, err := r.Generate(v, "/")
		if err != nil {
			t.Fatal(err)
		}
		if root.CommitID != v.Short() {
			t.Fatalf("Generate(%s, /) names commit %q", v.Short(), root.CommitID)
		}
		for _, p := range paths {
			chain, err := r.GenerateChain(v, p)
			if err != nil {
				t.Fatal(err)
			}
			want, from, err := r.Generate(v, p)
			if err != nil {
				t.Fatal(err)
			}
			if chain[0].Path != "/" || !chain[0].Citation.Equal(root) {
				t.Errorf("%s %s: root link %+v, Generate(/) = %+v", v.Short(), p, chain[0], root)
			}
			if last := chain[len(chain)-1]; last.Path != from || !last.Citation.Equal(want) {
				t.Errorf("%s %s: last link %+v, Generate = %+v from %s", v.Short(), p, last, want, from)
			}
		}
	}
}

func TestFunctionAtNonEnabled(t *testing.T) {
	r := newRepo(t)
	// Commit directly through the VCS, bypassing the citation layer.
	c1, err := r.VCS.CommitFiles("legacy", map[string]vcs.FileContent{"/f": vcs.File("x")}, opts("old", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.FunctionAt(c1); !errors.Is(err, ErrNotCitationEnabled) {
		t.Errorf("FunctionAt legacy = %v", err)
	}
	if r.IsCitationEnabled(c1) {
		t.Error("legacy version reported enabled")
	}
	// Checkout enables on the fly with the default root.
	wt, err := r.Checkout("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if wt.Function().Root().Owner != "Leshang" {
		t.Errorf("on-the-fly root = %+v", wt.Function().Root())
	}
	c2, err := wt.Commit(opts("new", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsCitationEnabled(c2) {
		t.Error("commit after checkout not enabled")
	}
}

// failingStore fails Get of the objects in fail, as a store with an I/O
// error or a corrupt record does.
type failingStore struct {
	store.Store
	mu   sync.Mutex
	fail map[object.ID]bool
}

var errInjectedRead = errors.New("injected read failure")

func (s *failingStore) Get(id object.ID) (object.Object, error) {
	s.mu.Lock()
	fail := s.fail[id]
	s.mu.Unlock()
	if fail {
		return nil, errInjectedRead
	}
	return s.Store.Get(id)
}

func (s *failingStore) failGets(ids ...object.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = map[object.ID]bool{}
	for _, id := range ids {
		s.fail[id] = true
	}
}

// TestCiteFileReadErrorKeepsCitations: a store that cannot read a version's
// citation.cite is a failed read, not a version without citations. Were it
// taken for one, Checkout would start from a default function and the next
// commit would write a version with every citation gone.
func TestCiteFileReadErrorKeepsCitations(t *testing.T) {
	objects := &failingStore{Store: store.NewMemoryStore()}
	r := &Repo{VCS: &vcs.Repository{Objects: objects, Refs: refs.NewMemoryStore()}, Meta: testMeta()}
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/lib/a.go", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/lib", cite("upstream")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := r.VCS.TreeOf(c1)
	entry, err := vcs.LookupPath(objects, tree, citefile.Path)
	if err != nil {
		t.Fatal(err)
	}

	for _, failing := range []object.ID{entry.ID, tree} {
		dropCachedFunctions(r)
		objects.failGets(failing)
		if _, err := r.ResolvedFunctionAt(c1); !errors.Is(err, errInjectedRead) || errors.Is(err, ErrNotCitationEnabled) {
			t.Errorf("ResolvedFunctionAt with an unreadable object: %v, want the read error", err)
		}
		if _, _, err := r.Generate(c1, "/lib/a.go"); !errors.Is(err, errInjectedRead) {
			t.Errorf("Generate with an unreadable object: %v, want the read error", err)
		}
		if _, err := r.Checkout("main"); !errors.Is(err, errInjectedRead) {
			t.Errorf("Checkout with an unreadable object: %v, want the read error", err)
		}
		if _, err := r.CiteFileBytes(c1); !errors.Is(err, errInjectedRead) {
			t.Errorf("CiteFileBytes with an unreadable object: %v, want the read error", err)
		}
	}

	// Once the store reads again, the next version still carries /lib's
	// citation.
	objects.failGets()
	wt, err = r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/lib/b.go", []byte("b")); err != nil {
		t.Fatal(err)
	}
	c2, err := wt.Commit(opts("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if c, from, err := r.Generate(c2, "/lib/b.go"); err != nil || from != "/lib" || c.Owner != "upstream" {
		t.Errorf("c2 /lib/b.go: %v from %q (%v), want upstream's citation from /lib", c, from, err)
	}

	// A directory where citation.cite belongs is a version without one.
	c3, err := r.VCS.CommitFiles("odd", map[string]vcs.FileContent{citefile.Path + "/x": vcs.File("x")}, opts("b", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.FunctionAt(c3); !errors.Is(err, ErrNotCitationEnabled) {
		t.Errorf("citation.cite as a directory: %v, want ErrNotCitationEnabled", err)
	}
}

func TestCheckoutUnbornBranch(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if !wt.Base().IsZero() {
		t.Error("unborn branch has a base")
	}
	if wt.Function().Root().Version != UnreleasedVersion {
		t.Errorf("unborn root = %+v", wt.Function().Root())
	}
}

func TestWorktreeIsolatedFromLaterCommits(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Second worktree advances the branch.
	wt2, _ := r.Checkout("main")
	if err := wt2.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := wt2.Commit(opts("b", 2)); err != nil {
		t.Fatal(err)
	}
	// Historical version unchanged (immutability).
	fn, err := r.FunctionAt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Root().CommittedDate.Unix() != 1 {
		t.Errorf("historical root date = %v", fn.Root().CommittedDate)
	}
}
