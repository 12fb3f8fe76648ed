package refs_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
)

// TestLegacyRefFilesThroughRepository opens a repository whose branch and
// tag files are in the bare "<id>\n" layout, with a "ref: …" HEAD: every
// read answers as before, Delete works, and a commit converts the branch
// file, which a reopen then reads.
func TestLegacyRefFilesThroughRepository(t *testing.T) {
	dir := t.TempDir()
	repo, err := vcs.OpenPackedFileRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("a", "a@x", time.Unix(1, 0)), Message: "m"}
	c1, err := repo.CommitFiles("main", map[string]vcs.FileContent{"/a.txt": vcs.File("a")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := repo.CommitFiles("main", map[string]vcs.FileContent{"/a.txt": vcs.File("b")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := map[string]string{
		"refs/heads/main":  c2.String() + "\n",
		"refs/heads/old":   c1.String() + "\n",
		"refs/tags/v1":     c1.String() + "\n",
		"HEAD":             "ref: refs/heads/main\n",
		"refs/heads/dev/x": c2.String() + "\n",
	}
	for name, content := range legacy {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	repo, err = vcs.OpenPackedFileRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := repo.Refs.Get("refs/heads/old"); err != nil || got != c1 {
		t.Fatalf("Get old = %s, %v", got.Short(), err)
	}
	names, err := repo.Refs.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"refs/heads/dev/x", "refs/heads/main", "refs/heads/old", "refs/tags/v1"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	branches, err := repo.Branches()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"dev/x", "main", "old"}; !reflect.DeepEqual(branches, want) {
		t.Fatalf("Branches = %v, want %v", branches, want)
	}
	if head, err := repo.Head(); err != nil || head != c2 {
		t.Fatalf("Head = %s, %v", head.Short(), err)
	}
	if tag, err := repo.TagTarget("v1"); err != nil || tag != c1 {
		t.Fatalf("TagTarget = %s, %v", tag.Short(), err)
	}
	if err := repo.Refs.Delete("refs/heads/old"); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Refs.Get("refs/heads/old"); !errors.Is(err, refs.ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}

	c3, err := repo.CommitFiles("main", map[string]vcs.FileContent{"/a.txt": vcs.File("c")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "refs", "heads", "main")); err != nil || fi.Size() != 182 {
		t.Fatalf("main after the commit: %v, %v; want the 182-byte slot layout", fi, err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	repo, err = vcs.OpenPackedFileRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if head, err := repo.Head(); err != nil || head != c3 {
		t.Fatalf("Head after reopen = %s, %v; want %s", head.Short(), err, c3.Short())
	}
	if c, err := repo.Commit(c3); err != nil || !reflect.DeepEqual(c.Parents, []object.ID{c2}) {
		t.Fatalf("the commit's parents = %v, %v; want [%s]", c, err, c2.Short())
	}
}
