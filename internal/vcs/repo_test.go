package vcs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
)

func sig(name string, unix int64) object.Signature {
	return object.NewSignature(name, name+"@example.org", time.Unix(unix, 0))
}

func commitOn(t *testing.T, r *Repository, branch string, files map[string]FileContent, msg string, unix int64) object.ID {
	t.Helper()
	id, err := r.CommitFiles(branch, files, CommitOptions{Author: sig("alice", unix), Message: msg})
	if err != nil {
		t.Fatalf("CommitFiles(%s, %q): %v", branch, msg, err)
	}
	return id
}

func TestCommitAndReadBack(t *testing.T) {
	r := NewMemoryRepository()
	files := map[string]FileContent{
		"/README.md":      File("# hi\n"),
		"/src/main.go":    File("package main\n"),
		"/src/util/u.go":  File("package util\n"),
		"/docs/intro.txt": File("intro\n"),
	}
	c1 := commitOn(t, r, "main", files, "initial", 100)

	c, err := r.Commit(c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parents) != 0 {
		t.Errorf("root commit has parents: %v", c.Parents)
	}
	got, err := ReadFile(r.Objects, c.TreeID, "/src/util/u.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "package util\n" {
		t.Errorf("ReadFile = %q", got)
	}
	// Flatten lists all files sorted.
	flat, err := FlattenTree(r.Objects, c.TreeID)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, f := range flat {
		paths = append(paths, f.Path)
	}
	want := []string{"/README.md", "/docs/intro.txt", "/src/main.go", "/src/util/u.go"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("flatten = %v, want %v", paths, want)
	}
}

func TestCommitChainAndHistory(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("1")}, "one", 1)
	c2 := commitOn(t, r, "main", map[string]FileContent{"/f": File("2")}, "two", 2)
	c3 := commitOn(t, r, "main", map[string]FileContent{"/f": File("3")}, "three", 3)

	hist, err := r.History(c3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hist, []object.ID{c3, c2, c1}) {
		t.Errorf("history = %v", hist)
	}
	tip, err := r.BranchTip("main")
	if err != nil || tip != c3 {
		t.Errorf("tip = %v, %v", tip, err)
	}
	head, err := r.Head()
	if err != nil || head != c3 {
		t.Errorf("Head = %v, %v", head, err)
	}
	branch, err := r.CurrentBranch()
	if err != nil || branch != "main" {
		t.Errorf("CurrentBranch = %q, %v", branch, err)
	}
}

func TestHeadUnborn(t *testing.T) {
	r := NewMemoryRepository()
	if _, err := r.Head(); !errors.Is(err, ErrNoCommits) {
		t.Errorf("Head on empty repo = %v, want ErrNoCommits", err)
	}
}

func TestBranchingAndCheckout(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("base")}, "base", 1)
	if err := r.CreateBranch("gui", c1); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateBranch("gui", c1); err == nil {
		t.Error("duplicate branch accepted")
	}
	if err := r.CreateBranch("bad", object.NewBlobString("x").ID()); err == nil {
		t.Error("branch at non-commit accepted")
	}
	c2 := commitOn(t, r, "gui", map[string]FileContent{"/f": File("base"), "/gui/app.js": File("ui")}, "gui work", 2)

	branches, err := r.Branches()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(branches, []string{"gui", "main"}) {
		t.Errorf("branches = %v", branches)
	}
	if err := r.Checkout("gui"); err != nil {
		t.Fatal(err)
	}
	head, err := r.Head()
	if err != nil || head != c2 {
		t.Errorf("Head after checkout = %v, %v, want %v", head, err, c2)
	}
	// main unchanged
	tip, _ := r.BranchTip("main")
	if tip != c1 {
		t.Error("main moved by gui commit")
	}
}

func TestIsAncestor(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("1")}, "1", 1)
	c2 := commitOn(t, r, "main", map[string]FileContent{"/f": File("2")}, "2", 2)
	if err := r.CreateBranch("side", c1); err != nil {
		t.Fatal(err)
	}
	c3 := commitOn(t, r, "side", map[string]FileContent{"/f": File("3")}, "3", 3)

	cases := []struct {
		anc, desc object.ID
		want      bool
	}{
		{c1, c2, true},
		{c1, c3, true},
		{c2, c3, false},
		{c3, c2, false},
		{c2, c2, true},
	}
	for i, c := range cases {
		got, err := r.IsAncestor(c.anc, c.desc)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("case %d: IsAncestor = %v, want %v", i, got, c.want)
		}
	}
}

func TestMergeBaseSimpleFork(t *testing.T) {
	r := NewMemoryRepository()
	base := commitOn(t, r, "main", map[string]FileContent{"/f": File("base")}, "base", 1)
	_ = commitOn(t, r, "main", map[string]FileContent{"/f": File("main2")}, "main2", 2)
	main3 := commitOn(t, r, "main", map[string]FileContent{"/f": File("main3")}, "main3", 3)
	if err := r.CreateBranch("side", base); err != nil {
		t.Fatal(err)
	}
	side1 := commitOn(t, r, "side", map[string]FileContent{"/f": File("side1")}, "side1", 4)

	mb, err := r.MergeBase(main3, side1)
	if err != nil {
		t.Fatal(err)
	}
	if mb != base {
		t.Errorf("MergeBase = %s, want %s", mb.Short(), base.Short())
	}
	// Fast-forward shape: base of (ancestor, descendant) is the ancestor.
	mb, err = r.MergeBase(base, main3)
	if err != nil || mb != base {
		t.Errorf("MergeBase(anc, desc) = %s, %v", mb.Short(), err)
	}
}

func TestMergeBaseDisjoint(t *testing.T) {
	r := NewMemoryRepository()
	a := commitOn(t, r, "main", map[string]FileContent{"/f": File("a")}, "a", 1)
	b := commitOn(t, r, "other", map[string]FileContent{"/g": File("b")}, "b", 2)
	mb, err := r.MergeBase(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !mb.IsZero() {
		t.Errorf("MergeBase of disjoint histories = %s, want zero", mb.Short())
	}
}

func TestMergeBaseAfterMerge(t *testing.T) {
	r := NewMemoryRepository()
	base := commitOn(t, r, "main", map[string]FileContent{"/f": File("0")}, "base", 1)
	if err := r.CreateBranch("side", base); err != nil {
		t.Fatal(err)
	}
	m1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("m")}, "m", 2)
	s1 := commitOn(t, r, "side", map[string]FileContent{"/g": File("s")}, "s", 3)

	// Merge side into main.
	treeID, err := r.TreeOf(m1)
	if err != nil {
		t.Fatal(err)
	}
	mergeC, err := r.MergeCommitOnBranch("main", treeID, s1, CommitOptions{Author: sig("alice", 4), Message: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Commit(mergeC)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsMerge() || c.Parents[0] != m1 || c.Parents[1] != s1 {
		t.Errorf("merge commit parents = %v", c.Parents)
	}
	// After the merge, the merge-base of main and side is side's tip.
	mb, err := r.MergeBase(mergeC, s1)
	if err != nil || mb != s1 {
		t.Errorf("MergeBase after merge = %s, %v, want %s", mb.Short(), err, s1.Short())
	}
}

func TestLogVisitsMergedHistoryOnce(t *testing.T) {
	r := NewMemoryRepository()
	base := commitOn(t, r, "main", map[string]FileContent{"/f": File("0")}, "base", 1)
	if err := r.CreateBranch("side", base); err != nil {
		t.Fatal(err)
	}
	m1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("m")}, "m", 2)
	s1 := commitOn(t, r, "side", map[string]FileContent{"/g": File("s")}, "s", 3)
	treeID, _ := r.TreeOf(m1)
	mergeC, err := r.MergeCommitOnBranch("main", treeID, s1, CommitOptions{Author: sig("a", 4), Message: "merge"})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.History(mergeC)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Errorf("history visited %d commits, want 4: %v", len(hist), hist)
	}
	seen := map[object.ID]int{}
	for _, id := range hist {
		seen[id]++
	}
	if seen[base] != 1 {
		t.Errorf("base visited %d times", seen[base])
	}
}

func TestLookupAndPathExists(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{
		"/a/b/c.txt": File("deep"),
		"/top.txt":   File("top"),
	}, "c", 1)
	tree, _ := r.TreeOf(c1)

	e, err := LookupPath(r.Objects, tree, "/a/b")
	if err != nil || !e.IsDir() {
		t.Errorf("LookupPath dir = %+v, %v", e, err)
	}
	e, err = LookupPath(r.Objects, tree, "/")
	if err != nil || !e.IsDir() || e.ID != tree {
		t.Errorf("LookupPath root = %+v, %v", e, err)
	}
	if !PathExists(r.Objects, tree, "/a/b/c.txt") {
		t.Error("existing file reported missing")
	}
	if PathExists(r.Objects, tree, "/a/zzz") {
		t.Error("missing path reported present")
	}
	if _, err := LookupPath(r.Objects, tree, "/top.txt/under-file"); err == nil {
		t.Error("path through file succeeded")
	}
	if _, err := ReadFile(r.Objects, tree, "/a/b"); err == nil {
		t.Error("ReadFile on directory succeeded")
	}
}

func TestBuildTreeRejectsFileDirClash(t *testing.T) {
	r := NewMemoryRepository()
	_, err := BuildTree(r.Objects, map[string]FileContent{
		"/a":   File("file"),
		"/a/b": File("child"),
	})
	if err == nil {
		t.Error("file/dir clash accepted")
	}
}

func TestBuildTreeEmptyAndRoundTrip(t *testing.T) {
	r := NewMemoryRepository()
	empty, err := BuildTree(r.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]FileContent{
		"/x/y/z.txt": File("z"),
		"/x/w.txt":   File("w"),
		"/q.txt":     File("q"),
	}
	tree1, err := BuildTree(r.Objects, files)
	if err != nil {
		t.Fatal(err)
	}
	if tree1 == empty {
		t.Error("non-empty tree equals empty tree")
	}
	back, err := TreeToFileMap(r.Objects, tree1)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := BuildTree(r.Objects, back)
	if err != nil {
		t.Fatal(err)
	}
	if tree1 != tree2 {
		t.Error("TreeToFileMap/BuildTree did not round-trip tree ID")
	}
}

func TestInsertAndRemoveSubtree(t *testing.T) {
	r := NewMemoryRepository()
	srcTree, err := BuildTree(r.Objects, map[string]FileContent{
		"/lib/a.go": File("a"),
		"/lib/b.go": File("b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	dstTree, err := BuildTree(r.Objects, map[string]FileContent{
		"/main.go": File("main"),
	})
	if err != nil {
		t.Fatal(err)
	}
	libEntry, err := LookupPath(r.Objects, srcTree, "/lib")
	if err != nil {
		t.Fatal(err)
	}
	combined, err := InsertSubtree(r.Objects, dstTree, "/vendor/lib", libEntry)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/main.go", "/vendor/lib/a.go", "/vendor/lib/b.go"} {
		if !PathExists(r.Objects, combined, p) {
			t.Errorf("path %q missing after graft", p)
		}
	}
	pruned, err := RemovePath(r.Objects, combined, "/vendor/lib/a.go")
	if err != nil {
		t.Fatal(err)
	}
	if PathExists(r.Objects, pruned, "/vendor/lib/a.go") {
		t.Error("removed path still present")
	}
	if !PathExists(r.Objects, pruned, "/vendor/lib/b.go") {
		t.Error("sibling removed too")
	}
	// Removing the last file prunes empty dirs.
	pruned2, err := RemovePath(r.Objects, pruned, "/vendor/lib/b.go")
	if err != nil {
		t.Fatal(err)
	}
	if PathExists(r.Objects, pruned2, "/vendor") {
		t.Error("empty intermediate directory not pruned")
	}
	if _, err := RemovePath(r.Objects, pruned2, "/ghost"); err == nil {
		t.Error("removing missing path succeeded")
	}
	if _, err := RemovePath(r.Objects, pruned2, "/"); err == nil {
		t.Error("removing root succeeded")
	}
}

func TestForkPreservesHistoryAndIDs(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("1")}, "1", 1)
	c2 := commitOn(t, r, "main", map[string]FileContent{"/f": File("2")}, "2", 2)
	if err := r.CreateBranch("dev", c1); err != nil {
		t.Fatal(err)
	}

	fork, err := Fork(r)
	if err != nil {
		t.Fatal(err)
	}
	tip, err := fork.BranchTip("main")
	if err != nil || tip != c2 {
		t.Errorf("fork main tip = %v, %v", tip, err)
	}
	devTip, err := fork.BranchTip("dev")
	if err != nil || devTip != c1 {
		t.Errorf("fork dev tip = %v, %v", devTip, err)
	}
	hist, err := fork.History(c2)
	if err != nil || !reflect.DeepEqual(hist, []object.ID{c2, c1}) {
		t.Errorf("fork history = %v, %v", hist, err)
	}
	// New commits in the fork don't affect the origin.
	c3, err := fork.CommitFiles("main", map[string]FileContent{"/f": File("fork!")}, CommitOptions{Author: sig("bob", 5), Message: "fork work"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Objects.Has(c3); ok {
		t.Error("fork commit leaked into origin store")
	}
}

func TestFileRepositoryPersists(t *testing.T) {
	dir := t.TempDir()
	r1, err := OpenPackedFileRepository(dir + "/.gitcite")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := r1.CommitFiles("main", map[string]FileContent{"/f": File("persisted")}, CommitOptions{Author: sig("a", 1), Message: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenPackedFileRepository(dir + "/.gitcite")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	head, err := r2.Head()
	if err != nil || head != c1 {
		t.Errorf("reopened Head = %v, %v", head, err)
	}
	tree, err := r2.TreeOf(head)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadFile(r2.Objects, tree, "/f")
	if err != nil || string(data) != "persisted" {
		t.Errorf("reopened ReadFile = %q, %v", data, err)
	}
}

func TestCommitTreeValidatesInputs(t *testing.T) {
	r := NewMemoryRepository()
	blobID, err := r.Objects.Put(object.NewBlobString("not a tree"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CommitTree(blobID, nil, CommitOptions{Author: sig("a", 1)}); err == nil {
		t.Error("commit of non-tree accepted")
	}
	tree, err := BuildTree(r.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CommitTree(tree, []object.ID{blobID}, CommitOptions{Author: sig("a", 1)}); err == nil {
		t.Error("commit with non-commit parent accepted")
	}
}

func TestCommitterDefaultsToAuthor(t *testing.T) {
	r := NewMemoryRepository()
	author := sig("alice", 42)
	id, err := r.CommitFiles("main", map[string]FileContent{"/f": File("x")}, CommitOptions{Author: author, Message: "m"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Commit(id)
	if err != nil {
		t.Fatal(err)
	}
	if c.Committer != author {
		t.Errorf("committer = %+v, want author", c.Committer)
	}
}

func TestDetachedHead(t *testing.T) {
	r := NewMemoryRepository()
	c1 := commitOn(t, r, "main", map[string]FileContent{"/f": File("1")}, "1", 1)
	if err := r.Refs.SetHEAD(refs.HEAD{Detached: c1}); err != nil {
		t.Fatal(err)
	}
	head, err := r.Head()
	if err != nil || head != c1 {
		t.Errorf("detached Head = %v, %v", head, err)
	}
	if _, err := r.CurrentBranch(); !errors.Is(err, refs.ErrDetached) {
		t.Errorf("CurrentBranch detached = %v, want ErrDetached", err)
	}
}

func TestWalkTreePaths(t *testing.T) {
	r := NewMemoryRepository()
	tree, err := BuildTree(r.Objects, map[string]FileContent{
		"/a/one.txt": File("1"),
		"/a/two.txt": File("2"),
		"/b.txt":     File("b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	err = WalkTree(r.Objects, tree, func(p string, e object.TreeEntry) error {
		visited = append(visited, fmt.Sprintf("%s:%v", p, e.IsDir()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a:true", "/a/one.txt:false", "/a/two.txt:false", "/b.txt:false"}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("walk = %v, want %v", visited, want)
	}
}
