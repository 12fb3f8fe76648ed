package gitcite

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// fullCommitTree is the oracle for the tree Worktree.Commit writes: every
// working file built from scratch, plus the citation.cite the full path
// writes for fn (the working function before the commit) — pruned against
// the working files, root undated, validated and encoded — whether or not
// Commit kept the base version's file instead.
func fullCommitTree(t *testing.T, wt *Worktree, fn *core.Function) object.ID {
	t.Helper()
	files := map[string]vcs.FileContent{}
	for _, p := range wt.Paths() {
		data, err := wt.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = vcs.FileContent{Data: data}
	}
	f := fn.Clone()
	f.Prune(wt.Tree())
	undateRoot(f)
	if err := f.Validate(wt.Tree()); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	data, err := citefile.Encode(f, wt.Tree().IsDir)
	if err != nil {
		t.Fatal(err)
	}
	files[citefile.Path] = vcs.FileContent{Data: data}
	id, err := vcs.BuildTree(store.NewMemoryStore(), files)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// stampedVersion commits, on top of branch's tip, a version whose
// citation.cite dates its root with the commit time, as every version
// written before the date moved into the commit does.
func stampedVersion(t *testing.T, r *Repo, branch string, when time.Time) object.ID {
	t.Helper()
	tip, err := r.VCS.BranchTip(branch)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := r.FunctionAt(tip)
	if err != nil {
		t.Fatal(err)
	}
	root := fn.Root()
	root.CommittedDate, root.Version = when.UTC(), ""
	if err := fn.Modify("/", root); err != nil {
		t.Fatal(err)
	}
	tree, err := r.TreeAt(tip)
	if err != nil {
		t.Fatal(err)
	}
	data, err := citefile.Encode(fn, tree.IsDir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.VCS.TreeOf(tip)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.VCS.CommitDelta(branch, base, map[string]vcs.TreeEdit{citefile.Path: {Data: data}}, nil,
		vcs.CommitOptions{Author: vcs.Sig("stamp", "s@x", when), Message: "stamped"})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestCommitKeepsCiteFileProperty drives random worktree scripts — file
// edits and creations, citation edits, removals, renames and file↔directory
// flips — and holds every commit to the full encode path: its tree is the
// oracle's, the function cached for it is Decode of the stored file
// (versionCheck), and a commit that changed nothing but file contents keeps
// its parent's citation.cite blob and cached function. Half the scripts start
// on a version whose file still carries a stamped root date: the first
// commit on top of it rewrites the file once.
func TestCommitKeepsCiteFileProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r *Repo
		var err error
		if seed%2 == 0 {
			r, err = OpenPackedFileRepo(t.TempDir(), testMeta())
		} else {
			r, err = NewMemoryRepo(testMeta())
		}
		if err != nil {
			t.Fatal(err)
		}
		wt, err := r.Checkout("main")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := wt.WriteFile(fmt.Sprintf("/d%d/e%d/f%d.txt", i%3, i%2, i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := wt.AddCite("/d1", cite("d1")); err != nil {
			t.Fatal(err)
		}
		clock := int64(5000)
		when := func() vcs.CommitOptions {
			clock++
			return opts("p", clock)
		}
		if _, err := wt.Commit(when()); err != nil {
			t.Fatal(err)
		}
		stamped := seed%4 < 2
		if stamped {
			clock++
			stampedVersion(t, r, "main", time.Unix(clock, 0))
			if wt, err = r.Checkout("main"); err != nil {
				t.Fatal(err)
			}
		}

		codeOnly := true
		for step := 0; step < 50; step++ {
			paths := wt.Paths()
			file := paths[rng.Intn(len(paths))]
			cited := wt.Function().Paths()
			tag := fmt.Sprint(seed, "-", step)
			switch rng.Intn(9) {
			case 0, 1, 2: // edit a file
				if err := wt.WriteFile(file, []byte(tag)); err != nil {
					t.Fatal(err)
				}
			case 3: // create one
				if err := wt.WriteFile(fmt.Sprintf("%s/new%d.txt", vcs.ParentPath(file), step), []byte(tag)); err != nil {
					t.Fatal(err)
				}
			case 4: // add or modify a citation
				p := file
				if rng.Intn(2) == 0 {
					p = vcs.ParentPath(file)
				}
				if err := wt.Function().Set(wt.Tree(), p, cite(tag)); err != nil {
					t.Fatal(err)
				}
				codeOnly = false
			case 5: // delete a citation
				if p := cited[rng.Intn(len(cited))]; p != "/" {
					if err := wt.DelCite(p); err != nil {
						t.Fatal(err)
					}
					codeOnly = false
				}
			case 6: // remove a file
				if len(paths) > 2 {
					if err := wt.RemoveFile(file); err != nil {
						t.Fatal(err)
					}
					codeOnly = false
				}
			case 7: // rename a file or its directory
				from := file
				if rng.Intn(2) == 0 && vcs.ParentPath(file) != "/" {
					from = vcs.ParentPath(file)
				}
				if err := wt.Move(from, fmt.Sprintf("/m%d", step)); err != nil {
					t.Fatal(err)
				}
				codeOnly = false
			case 8: // a file turns into a directory, or a directory into a file
				if dir := vcs.ParentPath(file); dir != "/" && rng.Intn(2) == 0 {
					for _, p := range paths {
						if vcs.IsAncestorPath(dir, p) {
							if err := wt.RemoveFile(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := wt.WriteFile(dir, []byte(tag)); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := wt.RemoveFile(file); err != nil {
						t.Fatal(err)
					}
					if err := wt.WriteFile(file+"/inner.txt", []byte(tag)); err != nil {
						t.Fatal(err)
					}
				}
				codeOnly = false
			}
			if rng.Intn(3) > 0 {
				continue
			}

			label := fmt.Sprintf("seed %d step %d", seed, step)
			parent := wt.Base()
			want := fullCommitTree(t, wt, wt.Function().Clone())
			id, err := wt.Commit(when())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, err := r.VCS.TreeOf(id); err != nil || got != want {
				t.Fatalf("%s: commit tree %s, the full encode path's %s (%v)", label, got.Short(), want.Short(), err)
			}
			cached := versionCheck(t, r, id, label)
			same := citeBlob(t, r, parent) == citeBlob(t, r, id)
			switch {
			case stamped && same:
				t.Fatalf("%s: the first commit on a stamped version kept its citation.cite", label)
			case codeOnly && !stamped && (!same || cached != cachedFunction(t, r, parent)):
				t.Fatalf("%s: a code-only commit wrote a citation.cite (%v) or did not share its parent's function", label, !same)
			}
			gen, _, err := r.Generate(id, "/")
			if err != nil || gen.CommittedDate != time.Unix(clock, 0).UTC() {
				t.Fatalf("%s: root reads %v (%v), want the commit's date", label, gen.CommittedDate, err)
			}
			stamped, codeOnly = false, true
		}
	}
}
