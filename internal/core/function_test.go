package core

import (
	"errors"
	"reflect"
	"testing"
)

// demoTree is the running-example-like tree used across function tests.
func demoTree() *PathSet {
	return MustPathSet(
		"/src/main.go",
		"/src/util/helpers.go",
		"/CoreCover/rewrite.py",
		"/CoreCover/tests/t1.py",
		"/citation/GUI/app.js",
		"/README.md",
	)
}

func named(owner string) Citation {
	return Citation{Owner: owner, RepoName: "P", URL: "https://x/" + owner, Version: "1", AuthorList: []string{owner}}
}

func TestNewFunctionRequiresValidRoot(t *testing.T) {
	if _, err := NewFunction(Citation{}); !errors.Is(err, ErrIncompleteCitation) {
		t.Errorf("NewFunction(zero) = %v", err)
	}
	f, err := NewFunction(named("root"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 || !f.Has("/") {
		t.Errorf("fresh function: len=%d has(/)=%v", f.Len(), f.Has("/"))
	}
}

func TestAddGetDeleteModify(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("root"))

	// AddCite
	if err := f.Add(tree, "/src", named("srcOwner")); err != nil {
		t.Fatalf("Add: %v", err)
	}
	got, err := f.Get("/src")
	if err != nil || got.Owner != "srcOwner" {
		t.Errorf("Get = %+v, %v", got, err)
	}
	// Add to a file.
	if err := f.Add(tree, "/README.md", named("docOwner")); err != nil {
		t.Fatalf("Add file: %v", err)
	}
	// Duplicate add fails.
	if err := f.Add(tree, "/src", named("x")); !errors.Is(err, ErrEntryExists) {
		t.Errorf("duplicate Add = %v", err)
	}
	// Add to a missing path fails.
	if err := f.Add(tree, "/nonexistent", named("x")); !errors.Is(err, ErrPathNotInTree) {
		t.Errorf("Add missing = %v", err)
	}
	// Add of empty citation fails.
	if err := f.Add(tree, "/src/main.go", Citation{}); !errors.Is(err, ErrEmptyCitation) {
		t.Errorf("Add empty = %v", err)
	}

	// ModifyCite
	if err := f.Modify("/src", named("newOwner")); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	got, _ = f.Get("/src")
	if got.Owner != "newOwner" {
		t.Errorf("after Modify = %+v", got)
	}
	// Modify a path with no entry fails.
	if err := f.Modify("/src/main.go", named("x")); !errors.Is(err, ErrNoEntry) {
		t.Errorf("Modify no entry = %v", err)
	}
	// Modify root to an incomplete citation fails.
	if err := f.Modify("/", Citation{Note: "just a note"}); !errors.Is(err, ErrIncompleteCitation) {
		t.Errorf("Modify root incomplete = %v", err)
	}

	// DelCite
	if err := f.Delete("/src"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if f.Has("/src") {
		t.Error("entry survives Delete")
	}
	if err := f.Delete("/src"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("double Delete = %v", err)
	}
	if err := f.Delete("/"); !errors.Is(err, ErrRootRequired) {
		t.Errorf("Delete root = %v", err)
	}
}

func TestResolveClosestAncestor(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("rootO"))
	if err := f.Add(tree, "/CoreCover", named("chenli")); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(tree, "/CoreCover/tests/t1.py", named("tester")); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path      string
		wantOwner string
		wantFrom  string
	}{
		{"/", "rootO", "/"},
		{"/README.md", "rootO", "/"},
		{"/src/util/helpers.go", "rootO", "/"},
		{"/CoreCover", "chenli", "/CoreCover"},
		{"/CoreCover/rewrite.py", "chenli", "/CoreCover"},
		{"/CoreCover/tests", "chenli", "/CoreCover"},
		{"/CoreCover/tests/t1.py", "tester", "/CoreCover/tests/t1.py"},
	}
	for _, c := range cases {
		got, from, err := f.Resolve(c.path)
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.path, err)
			continue
		}
		if got.Owner != c.wantOwner || from != c.wantFrom {
			t.Errorf("Resolve(%q) = %q from %q, want %q from %q", c.path, got.Owner, from, c.wantOwner, c.wantFrom)
		}
	}
}

func TestResolveChain(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("rootO"))
	if err := f.Add(tree, "/CoreCover", named("mid")); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(tree, "/CoreCover/tests/t1.py", named("leaf")); err != nil {
		t.Fatal(err)
	}
	chain, err := f.ResolveChain("/CoreCover/tests/t1.py")
	if err != nil {
		t.Fatal(err)
	}
	var owners []string
	for _, pc := range chain {
		owners = append(owners, pc.Citation.Owner)
	}
	if !reflect.DeepEqual(owners, []string{"rootO", "mid", "leaf"}) {
		t.Errorf("chain owners = %v", owners)
	}
	// A node with nothing on the way gets just the root.
	chain, err = f.ResolveChain("/src/main.go")
	if err != nil || len(chain) != 1 || chain[0].Path != "/" {
		t.Errorf("chain = %+v, %v", chain, err)
	}
}

func TestActiveDomainSortedAndPaths(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	for _, p := range []string{"/src", "/CoreCover", "/README.md"} {
		if err := f.Add(tree, p, named("o-"+p)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"/", "/CoreCover", "/README.md", "/src"}
	if got := f.Paths(); !reflect.DeepEqual(got, want) {
		t.Errorf("Paths = %v", got)
	}
	dom := f.ActiveDomain()
	for i, pc := range dom {
		if pc.Path != want[i] {
			t.Errorf("domain[%d] = %q, want %q", i, pc.Path, want[i])
		}
	}
}

func TestRenameFile(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/README.md", named("doc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/README.md", "/docs/README.md"); err != nil {
		t.Fatal(err)
	}
	if f.Has("/README.md") {
		t.Error("old key survives rename")
	}
	got, err := f.Get("/docs/README.md")
	if err != nil || got.Owner != "doc" {
		t.Errorf("renamed entry = %+v, %v", got, err)
	}
}

func TestRenameDirectoryRekeysSubtree(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/CoreCover", named("dir")); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(tree, "/CoreCover/tests/t1.py", named("leaf")); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(tree, "/src", named("other")); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/CoreCover", "/vendor/corecover"); err != nil {
		t.Fatal(err)
	}
	wantPaths := []string{"/", "/src", "/vendor/corecover", "/vendor/corecover/tests/t1.py"}
	if got := f.Paths(); !reflect.DeepEqual(got, wantPaths) {
		t.Errorf("paths after rename = %v", got)
	}
	leaf, _ := f.Get("/vendor/corecover/tests/t1.py")
	if leaf.Owner != "leaf" {
		t.Errorf("leaf after rename = %+v", leaf)
	}
}

func TestRenameEdgeCases(t *testing.T) {
	f := MustNewFunction(named("r"))
	if err := f.Rename("/", "/x"); err == nil {
		t.Error("renaming root succeeded")
	}
	if err := f.Rename("/a", "/"); err == nil {
		t.Error("renaming onto root succeeded")
	}
	// Renaming a path with no entries is a no-op, not an error.
	if err := f.Rename("/ghost", "/elsewhere"); err != nil {
		t.Errorf("rename of uncited path = %v", err)
	}
	// Same-path rename is a no-op.
	if err := f.Rename("/a", "/a"); err != nil {
		t.Errorf("identity rename = %v", err)
	}
}

func TestPrune(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	for _, p := range []string{"/src", "/CoreCover", "/README.md"} {
		if err := f.Add(tree, p, named("o")); err != nil {
			t.Fatal(err)
		}
	}
	// New tree without CoreCover or README.
	smaller := MustPathSet("/src/main.go")
	removed := f.Prune(smaller)
	if !reflect.DeepEqual(removed, []string{"/CoreCover", "/README.md"}) {
		t.Errorf("removed = %v", removed)
	}
	if !f.Has("/") || !f.Has("/src") {
		t.Error("prune removed surviving entries")
	}
	if err := f.Validate(smaller); err != nil {
		t.Errorf("pruned function invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/src", named("o")); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(tree); err != nil {
		t.Errorf("valid function rejected: %v", err)
	}
	// A function referencing a missing path fails validation.
	other := MustPathSet("/other.txt")
	if err := f.Validate(other); !errors.Is(err, ErrPathNotInTree) {
		t.Errorf("Validate against wrong tree = %v", err)
	}
}

func TestFromEntries(t *testing.T) {
	f, err := FromEntries(map[string]Citation{
		"/":    named("root"),
		"/src": named("src"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Errorf("len = %d", f.Len())
	}
	if _, err := FromEntries(map[string]Citation{"/src": named("src")}); !errors.Is(err, ErrRootRequired) {
		t.Errorf("FromEntries without root = %v", err)
	}
	if _, err := FromEntries(map[string]Citation{"/": {Note: "incomplete"}}); !errors.Is(err, ErrIncompleteCitation) {
		t.Errorf("FromEntries incomplete root = %v", err)
	}
	if _, err := FromEntries(map[string]Citation{"/": named("r"), "/x": {}}); !errors.Is(err, ErrEmptyCitation) {
		t.Errorf("FromEntries empty entry = %v", err)
	}
	// Uncleaned keys are canonicalised.
	f, err = FromEntries(map[string]Citation{"/": named("r"), "src/": named("s")})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Has("/src") {
		t.Error("uncleaned key not canonicalised")
	}
}

func TestCloneAndEqual(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/src", named("s")); err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone not equal")
	}
	if err := g.Modify("/src", named("changed")); err != nil {
		t.Fatal(err)
	}
	if f.Equal(g) {
		t.Error("modifying clone affected original equality")
	}
	orig, _ := f.Get("/src")
	if orig.Owner != "s" {
		t.Error("clone shares storage with original")
	}
	// Different domains unequal.
	h := f.Clone()
	if err := h.Delete("/src"); err != nil {
		t.Fatal(err)
	}
	if f.Equal(h) {
		t.Error("different domains equal")
	}
}

// TestSharesEntries: clones and assignments share their source's entry map
// until either side is written to, and any write — even one that leaves the
// function equal — ends the sharing; equal functions built apart never share.
func TestSharesEntries(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/src", named("s")); err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	if !f.SharesEntries(g) || !g.SharesEntries(f) || !f.SharesEntries(f) {
		t.Fatal("a clone does not share its source's entries")
	}
	if err := g.Modify("/src", named("s")); err != nil {
		t.Fatal(err)
	}
	if f.SharesEntries(g) || !f.Equal(g) {
		t.Error("a written clone still shares its source's entries, or a same-value write changed it")
	}
	g.Assign(f)
	if !g.SharesEntries(f) {
		t.Error("Assign does not share the assigned entries")
	}
	if err := f.Delete("/src"); err != nil {
		t.Fatal(err)
	}
	if f.SharesEntries(g) || !g.Has("/src") {
		t.Error("a write to the source is shared with, or reaches, its assignee")
	}
	h := MustNewFunction(named("r"))
	if h.SharesEntries(MustNewFunction(named("r"))) {
		t.Error("two functions built apart share entries")
	}
}

func TestSetAddsOrReplaces(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Set(tree, "/src", named("first")); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(tree, "/src", named("second")); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Get("/src")
	if got.Owner != "second" {
		t.Errorf("Set did not replace: %+v", got)
	}
	if err := f.Set(tree, "/ghost", named("x")); !errors.Is(err, ErrPathNotInTree) {
		t.Errorf("Set missing path = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("r"))
	if err := f.Add(tree, "/src", Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Get("/src")
	got.AuthorList[0] = "mutated"
	again, _ := f.Get("/src")
	if again.AuthorList[0] != "a" {
		t.Error("Get exposed internal storage")
	}
}
