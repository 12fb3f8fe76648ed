package gitcite

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs"
)

// seedManyFiles commits a nested tree of n files on the branch and returns
// the commit.
func seedManyFiles(t *testing.T, r *Repo, branch string, n int) {
	t.Helper()
	wt, err := r.Checkout(branch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/dir%d/sub%d/file%d.txt", i%10, (i/10)%10, i)
		if err := wt.WriteFile(p, []byte(fmt.Sprintf("content %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wt.Commit(opts("alice", 1_600_000_000)); err != nil {
		t.Fatal(err)
	}
}

// TestLazyCheckoutReadsAndIncrementalCommit checks the lazy worktree end
// to end: a fresh checkout holds blob references, reads load on demand,
// and an incremental one-file commit produces exactly the tree a full
// rebuild would, with untouched subtrees shared between the versions.
func TestLazyCheckoutReadsAndIncrementalCommit(t *testing.T) {
	r := newRepo(t)
	seedManyFiles(t, r, "main", 200)

	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	got, err := wt.ReadFile("/dir3/sub1/file13.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("content 13")) {
		t.Errorf("lazy ReadFile = %q", got)
	}

	if err := wt.WriteFile("/dir3/sub1/file13.txt", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(opts("alice", 1_600_000_100))
	if err != nil {
		t.Fatal(err)
	}

	// The changed file reads back; an untouched one still reads lazily.
	wt2, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wt2.ReadFile("/dir3/sub1/file13.txt"); err != nil || !bytes.Equal(got, []byte("changed")) {
		t.Errorf("after commit: ReadFile = %q, %v", got, err)
	}
	if got, err := wt2.ReadFile("/dir7/sub2/file27.txt"); err != nil || !bytes.Equal(got, []byte("content 27")) {
		t.Errorf("untouched file: ReadFile = %q, %v", got, err)
	}

	// Untouched subtrees are shared object-for-object with the parent.
	prev, err := r.VCS.Commit(commit)
	if err != nil {
		t.Fatal(err)
	}
	baseTree, err := r.VCS.TreeOf(prev.Parents[0])
	if err != nil {
		t.Fatal(err)
	}
	newTree, err := r.VCS.TreeOf(commit)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/dir0", "/dir5", "/dir3/sub0"} {
		oldE, err := vcs.LookupPath(r.VCS.Objects, baseTree, dir)
		if err != nil {
			t.Fatal(err)
		}
		newE, err := vcs.LookupPath(r.VCS.Objects, newTree, dir)
		if err != nil {
			t.Fatal(err)
		}
		if oldE.ID != newE.ID {
			t.Errorf("untouched subtree %s was rebuilt across the commit", dir)
		}
	}

	// The incremental tree must match a from-scratch build of the same
	// file map (with the same citation.cite blob).
	full, err := vcs.TreeToFileMap(r.VCS.Objects, newTree)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := vcs.BuildTree(r.VCS.Objects, full)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != newTree {
		t.Errorf("incremental commit tree %s != from-scratch rebuild %s", newTree.Short(), rebuilt.Short())
	}
}

// TestMoveUnloadedFilesAndRemoveDir exercises move and remove over lazy
// blob references: contents must survive a rename-by-reference commit.
func TestMoveUnloadedFilesAndRemoveDir(t *testing.T) {
	r := newRepo(t)
	seedManyFiles(t, r, "main", 30)

	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/dir2", cite("ext")); err != nil {
		t.Fatal(err)
	}
	if err := wt.Move("/dir2", "/renamed"); err != nil {
		t.Fatal(err)
	}
	commit, err := wt.Commit(opts("alice", 1_600_000_200))
	if err != nil {
		t.Fatal(err)
	}

	tree, err := r.VCS.TreeOf(commit)
	if err != nil {
		t.Fatal(err)
	}
	if vcs.PathExists(r.VCS.Objects, tree, "/dir2") {
		t.Error("/dir2 still exists after move")
	}
	data, err := vcs.ReadFile(r.VCS.Objects, tree, "/renamed/sub0/file2.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("content 2")) {
		t.Errorf("moved file content = %q", data)
	}
	// The citation moved with the files.
	c, from, err := r.Generate(commit, "/renamed/sub0/file2.txt")
	if err != nil {
		t.Fatal(err)
	}
	if from != "/renamed" || c.Owner != "ext" {
		t.Errorf("citation after move: from=%s owner=%s", from, c.Owner)
	}
}

// TestMoveRejectsCiteFileTarget: the system-managed citation.cite can be
// neither a direct nor a rebased move destination — without the guard the
// moved file would be silently overwritten by the regenerated citation
// file at commit.
func TestMoveRejectsCiteFileTarget(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/notes.txt", []byte("n")); err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/dir/citation.cite", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := wt.Move("/notes.txt", "/citation.cite"); err == nil {
		t.Error("moving a file onto /citation.cite was accepted")
	}
	if err := wt.Move("/dir", "/"); err == nil {
		t.Error("moving a directory onto the root was accepted")
	}
	// A rebase that would land on /citation.cite is rejected too.
	if err := wt.Move("/dir/citation.cite", "/citation.cite"); err == nil {
		t.Error("rebased move onto /citation.cite was accepted")
	}
}

// TestParallelCommitsThroughBatchStore drives concurrent commits on
// distinct branches of one shared repository — the hosting-platform write
// regime — through the incremental builder and the batch store API.
func TestParallelCommitsThroughBatchStore(t *testing.T) {
	r := newRepo(t)
	seedManyFiles(t, r, "main", 100)

	const writers = 8
	const commitsEach = 5
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			branch := fmt.Sprintf("feature-%d", w)
			tip, err := r.VCS.BranchTip("main")
			if err != nil {
				errs <- err
				return
			}
			if err := r.VCS.CreateBranch(branch, tip); err != nil {
				errs <- err
				return
			}
			wt, err := r.Checkout(branch)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < commitsEach; i++ {
				p := fmt.Sprintf("/dir%d/w%d-%d.txt", w, w, i)
				if err := wt.WriteFile(p, []byte(fmt.Sprintf("writer %d commit %d", w, i))); err != nil {
					errs <- err
					return
				}
				if _, err := wt.Commit(opts(fmt.Sprintf("w%d", w), 1_600_001_000+int64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		tip, err := r.VCS.BranchTip(fmt.Sprintf("feature-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := r.VCS.TreeOf(tip)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < commitsEach; i++ {
			p := fmt.Sprintf("/dir%d/w%d-%d.txt", w, w, i)
			data, err := vcs.ReadFile(r.VCS.Objects, tree, p)
			if err != nil {
				t.Fatalf("branch feature-%d missing %s: %v", w, p, err)
			}
			if want := fmt.Sprintf("writer %d commit %d", w, i); string(data) != want {
				t.Errorf("%s = %q, want %q", p, data, want)
			}
		}
		// The seeded files must have survived every incremental commit.
		if _, err := vcs.ReadFile(r.VCS.Objects, tree, "/dir1/sub0/file1.txt"); err != nil {
			t.Errorf("branch feature-%d lost a seeded file: %v", w, err)
		}
	}
}

// TestCheckoutBuildsDirIndex checks that the directory index Checkout fills
// in its tree walk is the one dirs() rebuilds from the working files: every
// directory a working file lies under, and "/". Sibling names that share a
// prefix stay apart, and a root holding only citation.cite indexes "/" alone.
func TestCheckoutBuildsDirIndex(t *testing.T) {
	for name, paths := range map[string][]string{
		"nested":         {"/a/b/c/d.txt", "/a/b/e.txt", "/a/f.txt", "/g.txt", "/h/i/j/k/l.txt"},
		"sibling-prefix": {"/a/b/x", "/a.b/y", "/a/b.c/z", "/ab/w", "/a/bb"},
		"cite-only":      nil,
	} {
		t.Run(name, func(t *testing.T) {
			r := newRepo(t)
			wt, err := r.Checkout("main")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				if err := wt.WriteFile(p, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := wt.Commit(opts("alice", 1)); err != nil {
				t.Fatal(err)
			}
			wt, err = r.Checkout("main")
			if err != nil {
				t.Fatal(err)
			}
			got := wt.dirIndex
			if got == nil || wt.dirIndexGen != wt.gen {
				t.Fatal("Checkout left the directory index to be rebuilt")
			}
			wt.dirIndex = nil
			if want := wt.dirs(); !reflect.DeepEqual(got, want) {
				t.Errorf("index after Checkout = %v, rebuilt = %v", got, want)
			}
		})
	}
}
