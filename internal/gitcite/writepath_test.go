package gitcite

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/merge"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// TestStaleWorktreeRefusesToCommit: two worktrees of one branch; once A has
// committed, B's commit would name A's version as its parent while holding
// the files and citations of the version before it — and silently undo A.
func TestStaleWorktreeRefusesToCommit(t *testing.T) {
	r := newRepo(t)
	seed, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/x.txt", "/y.txt"} {
		if err := seed.WriteFile(p, []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := seed.Commit(opts("seed", 1)); err != nil {
		t.Fatal(err)
	}
	a, _ := r.Checkout("main")
	b, _ := r.Checkout("main")
	if err := a.WriteFile("/x.txt", []byte("from A")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddCite("/x.txt", cite("alice")); err != nil {
		t.Fatal(err)
	}
	tipA, err := a.Commit(opts("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile("/y.txt", []byte("from B")); err != nil {
		t.Fatal(err)
	}
	if id, err := b.Commit(opts("b", 3)); !errors.Is(err, ErrStaleWorktree) {
		t.Fatalf("stale worktree committed %s, err %v; want ErrStaleWorktree", id.Short(), err)
	}
	if tip, _ := r.VCS.BranchTip("main"); tip != tipA || b.Base() == tipA {
		t.Fatalf("the refused commit moved the branch to %s or the worktree to %s", tip.Short(), b.Base().Short())
	}
	// A's version is intact, and A itself carries on.
	if c, from, err := r.Generate(tipA, "/x.txt"); err != nil || from != "/x.txt" || c.Owner != "alice" {
		t.Errorf("A's citation after B's attempt: %v from %q, err %v", c, from, err)
	}
	if _, err := a.Commit(opts("a", 4)); err != nil {
		t.Errorf("the up-to-date worktree cannot commit: %v", err)
	}

	// Unborn branch: two worktrees race for the root commit.
	first, _ := r.Checkout("fresh")
	second, _ := r.Checkout("fresh")
	for _, wt := range []*Worktree{first, second} {
		if err := wt.WriteFile("/f", []byte("f")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := first.Commit(opts("first", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Commit(opts("second", 6)); !errors.Is(err, ErrStaleWorktree) {
		t.Errorf("second root commit on the branch: err %v, want ErrStaleWorktree", err)
	}
}

// TestWriteFileOverExistingKeepsDirIndex: the directory index is a function
// of the set of working paths, so rewriting a file leaves it valid and
// creating, removing or moving one does not.
func TestWriteFileOverExistingKeepsDirIndex(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	if err := wt.WriteFile("/a/b/f.txt", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if !wt.Tree().IsDir("/a/b") {
		t.Fatal("/a/b is not a directory")
	}
	gen := wt.gen
	if err := wt.WriteFile("/a/b/f.txt", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if wt.gen != gen {
		t.Error("rewriting an existing file invalidated the directory index")
	}
	if err := wt.WriteFile("/a/c/g.txt", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if !wt.Tree().IsDir("/a/c") {
		t.Error("a created file's directory is missing from the index")
	}
	if err := wt.RemoveFile("/a/c/g.txt"); err != nil {
		t.Fatal(err)
	}
	if wt.Tree().Exists("/a/c") {
		t.Error("a removed file's directory is still in the index")
	}
	if err := wt.Move("/a/b", "/z"); err != nil {
		t.Fatal(err)
	}
	if wt.Tree().Exists("/a") || !wt.Tree().IsDir("/z") {
		t.Error("the index did not follow a move")
	}
}

// versionCheck holds one stored version to the write path's contract: the
// function the cache serves is what decoding the stored citation.cite
// yields; the file is byte for byte what the from-scratch encoder writes
// for that function; and the commit's tree is what building every file of
// the version from scratch gives.
func versionCheck(t *testing.T, r *Repo, id object.ID, label string) *core.Function {
	t.Helper()
	cached := cachedFunction(t, r, id)
	if cached == nil {
		t.Fatalf("%s: version %s was not seeded into the function cache", label, id.Short())
	}
	data, err := r.CiteFileBytes(id)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	decoded, err := citefile.Decode(data)
	if err != nil {
		t.Fatalf("%s: stored citation.cite does not decode: %v", label, err)
	}
	if got, want := cached.ActiveDomain(), decoded.ActiveDomain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cached function is not Decode of the stored file\n got %+v\nwant %+v", label, got, want)
	}
	tree, err := r.TreeAt(id)
	if err != nil {
		t.Fatal(err)
	}
	// decoded carries no memoised bytes: this is a from-scratch marshal of
	// every entry.
	if fresh, err := citefile.Encode(decoded, tree.IsDir); err != nil || !bytes.Equal(fresh, data) {
		t.Fatalf("%s: stored citation.cite is not the from-scratch encoding of its own function (%v)\n got %s\nwant %s", label, err, data, fresh)
	}
	treeID, err := r.VCS.TreeOf(id)
	if err != nil {
		t.Fatal(err)
	}
	files, err := vcs.TreeToFileMap(r.VCS.Objects, treeID)
	if err != nil {
		t.Fatal(err)
	}
	if scratch, err := vcs.BuildTree(store.NewMemoryStore(), files); err != nil || scratch != treeID {
		t.Fatalf("%s: tree %s is not the from-scratch build %s of its files (%v)", label, treeID.Short(), scratch.Short(), err)
	}
	return cached
}

// awkward draws a citation off its canonical form: nanoseconds, a zone, an
// empty-but-present author list, text JSON escapes.
func awkward(rng *rand.Rand, tag string) core.Citation {
	c := core.Citation{Owner: "o<" + tag, RepoName: "r&" + tag, Note: "n\t" + tag, Version: fmt.Sprint(rng.Intn(100))}
	switch rng.Intn(3) {
	case 0:
		c.CommittedDate = time.Unix(rng.Int63n(2e9), rng.Int63n(1e9))
	case 1:
		c.CommittedDate = time.Unix(rng.Int63n(2e9), 0).In(time.FixedZone("z", 3600*(rng.Intn(20)-10)))
	}
	if rng.Intn(2) == 0 {
		c.AuthorList = []string{}
		c.Extra = map[string]string{"k": tag}
	} else {
		c.AuthorList = []string{tag, "b"}
	}
	return c
}

// TestWritePathPropertyCachedFunctionIsColdLoad drives random scripts of
// file edits, file↔directory flips and all six operators through worktrees
// and MergeBranches, on an in-memory and on a pack-backed repository, and
// checks every version written (versionCheck), that the worktree reads as
// the version it sits on, and at the end that a cold reopen serves the same
// functions.
func TestWritePathPropertyCachedFunctionIsColdLoad(t *testing.T) {
	donor := newRepo(t)
	dwt, _ := donor.Checkout("main")
	for _, p := range []string{"/pkg/a.txt", "/pkg/sub/b.txt"} {
		if err := dwt.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dwt.AddCite("/pkg/sub", awkward(rand.New(rand.NewSource(99)), "donor")); err != nil {
		t.Fatal(err)
	}
	donorTip, err := dwt.Commit(opts("donor", 1))
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		var r *Repo
		if seed%2 == 0 {
			r, err = OpenPackedFileRepo(dir, testMeta())
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
		for i := 0; i < 12; i++ {
			if err := wt.WriteFile(fmt.Sprintf("/d%d/e%d/f%d.txt", i%3, i%2, i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		clock := int64(1000)
		// Commit times carry nanoseconds: the root date must still read
		// to the second, for commits and merges alike.
		when := func(who string) vcs.CommitOptions {
			clock++
			return vcs.CommitOptions{Author: object.Signature{Name: who, Email: who + "@x", When: time.Unix(clock, 123456789)}, Message: who}
		}
		written := map[object.ID]*core.Function{}
		commit := func(label string) {
			t.Helper()
			id, err := wt.Commit(when(label))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			cached := versionCheck(t, r, id, fmt.Sprintf("seed %d %s", seed, label))
			if !reflect.DeepEqual(wt.Function().ActiveDomain(), cached.ActiveDomain()) {
				t.Fatalf("seed %d %s: the worktree does not read as the version it sits on", seed, label)
			}
			written[id] = cached
		}
		commit("initial")

		tag := 0
		for step := 0; step < 60; step++ {
			tag++
			label := fmt.Sprintf("step %d", step)
			paths := wt.Paths()
			file := paths[rng.Intn(len(paths))]
			cited := wt.Function().Paths()
			switch rng.Intn(10) {
			case 0, 1: // plain edit
				if err := wt.WriteFile(file, []byte(label)); err != nil {
					t.Fatal(err)
				}
			case 2: // AddCite on a file or on its directory
				p := file
				if rng.Intn(2) == 0 && vcs.ParentPath(file) != "/" {
					p = vcs.ParentPath(file)
				}
				_ = wt.AddCite(p, awkward(rng, fmt.Sprint(tag)))
			case 3: // ModifyCite, the root included
				if err := wt.ModifyCite(cited[rng.Intn(len(cited))], func() core.Citation {
					c := awkward(rng, fmt.Sprint(tag))
					c.URL = "https://x/" + fmt.Sprint(tag)
					return c
				}()); err != nil {
					t.Fatal(err)
				}
			case 4: // DelCite
				if p := cited[rng.Intn(len(cited))]; p != "/" {
					if err := wt.DelCite(p); err != nil {
						t.Fatal(err)
					}
				}
			case 5: // rename a directory (or a top-level file)
				from := vcs.ParentPath(file)
				if from == "/" {
					from = file
				}
				if err := wt.Move(from, fmt.Sprintf("/moved%d", tag)); err != nil {
					t.Fatal(err)
				}
			case 6: // a cited file turns into a directory under the same key
				if err := wt.RemoveFile(file); err != nil {
					t.Fatal(err)
				}
				if err := wt.WriteFile(file+"/inner.txt", []byte(label)); err != nil {
					t.Fatal(err)
				}
				_ = wt.AddCite(file, awkward(rng, fmt.Sprint(tag)))
			case 7: // … and a cited directory into a file
				if dir := vcs.ParentPath(file); dir != "/" {
					_ = wt.AddCite(dir, awkward(rng, fmt.Sprint(tag)))
					for _, p := range paths {
						if vcs.IsAncestorPath(dir, p) {
							if err := wt.RemoveFile(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := wt.WriteFile(dir, []byte(label)); err != nil {
						t.Fatal(err)
					}
				}
			case 8: // CopyCite
				if err := wt.CopyCite(donor, donorTip, "/pkg", fmt.Sprintf("/vendor%d", tag)); err != nil {
					t.Fatal(err)
				}
			case 9: // MergeCite: diverge on a file each and on one citation
				commit(label + " pre-merge")
				if err := r.VCS.CreateBranch("side", wt.Base()); err != nil {
					t.Fatal(err)
				}
				side, err := r.Checkout("side")
				if err != nil {
					t.Fatal(err)
				}
				target := cited[rng.Intn(len(cited))]
				for i, w := range []*Worktree{side, wt} {
					c := awkward(rng, fmt.Sprint(tag, "-", i))
					c.URL = "https://x/merge"
					if err := w.ModifyCite(target, c); err != nil {
						t.Fatal(err)
					}
					if err := w.WriteFile(fmt.Sprintf("/merge%d/side%d.txt", tag, i), []byte(label)); err != nil {
						t.Fatal(err)
					}
				}
				if err := side.RemoveFile(file); err != nil {
					t.Fatal(err)
				}
				sideTip, err := side.Commit(when("side"))
				if err != nil {
					t.Fatal(err)
				}
				written[sideTip] = versionCheck(t, r, sideTip, fmt.Sprintf("seed %d %s side", seed, label))
				commit(label + " main side")
				strategies := []core.Strategy{core.StrategyOurs, core.StrategyTheirs, core.StrategyThreeWay}
				res, err := r.MergeBranches("main", "side", MergeOptions{
					Files:     merge.Options{Resolver: func(merge.Conflict) merge.Resolution { return merge.ResolveTheirs }},
					Citations: core.MergeOptions{Strategy: strategies[rng.Intn(len(strategies))], Resolver: func(c core.MergeConflict) (core.Citation, error) { return c.Theirs, nil }},
					Commit:    when("merge"),
				})
				if err != nil || res.FastForward {
					t.Fatalf("seed %d %s: merge: %+v, %v", seed, label, res, err)
				}
				merged := versionCheck(t, r, res.CommitID, fmt.Sprintf("seed %d %s merge", seed, label))
				if root := merged.Root(); !root.CommittedDate.IsZero() || root.Version == "" {
					t.Fatalf("seed %d %s: merge stored the root %+v, want no date and a version", seed, label, root)
				}
				if root, _, err := r.Generate(res.CommitID, "/"); err != nil || root.CommittedDate != time.Unix(clock, 0).UTC() {
					t.Fatalf("seed %d %s: merge's root reads %v (%v), want the commit time to the second", seed, label, root.CommittedDate, err)
				}
				written[res.CommitID] = merged
				if err := r.VCS.Refs.Delete(refs.BranchRef("side")); err != nil {
					t.Fatal(err)
				}
				if wt, err = r.Checkout("main"); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if rng.Intn(3) > 0 {
				commit(label)
			}
		}
		commit("final")

		if seed%2 != 0 {
			continue
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		cold, err := OpenPackedFileRepo(dir, testMeta())
		if err != nil {
			t.Fatal(err)
		}
		for id, served := range written {
			fn, err := cold.ResolvedFunctionAt(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fn.ActiveDomain(), served.ActiveDomain()) {
				t.Fatalf("seed %d: version %s reads differently after a cold reopen", seed, id.Short())
			}
		}
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitSharesRecordsAcrossVersions: the version after a one-entry edit
// holds the previous version's records for every entry but the edited one —
// so that one is all Encode had to marshal — a file-only edit adds no record
// and keeps the citation.cite blob, and a merge takes each untouched entry
// from a side.
func TestCommitSharesRecordsAcrossVersions(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/pkg%d/f.txt", i)
		if err := wt.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
		if err := wt.AddCite(p, cite(fmt.Sprint("owner", i))); err != nil {
			t.Fatal(err)
		}
	}
	v1, err := wt.Commit(opts("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	records := func(id object.ID) map[string]*core.Record {
		fn, err := r.ResolvedFunctionAt(id)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]*core.Record{}
		for _, pr := range fn.Records() {
			if pr.Record.Encoding() == nil {
				t.Fatalf("%s@%s: a record of a written version carries no bytes", pr.Path, id.Short())
			}
			out[pr.Path] = pr.Record
		}
		return out
	}
	diff := func(before, after map[string]*core.Record) []string {
		d := map[string]bool{}
		for p, rec := range after {
			if before[p] != rec {
				d[p] = true
			}
		}
		return vcs.SortedPaths(d)
	}

	if err := wt.ModifyCite("/pkg7/f.txt", cite("edited")); err != nil {
		t.Fatal(err)
	}
	v2, err := wt.Commit(opts("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := diff(records(v1), records(v2)), []string{"/pkg7/f.txt"}; !reflect.DeepEqual(got, want) {
		t.Errorf("records new in the version after a one-entry edit: %v, want %v", got, want)
	}

	// A fresh checkout (cold worktree, warm cache) shares them too.
	again, _ := r.Checkout("main")
	if err := again.WriteFile("/pkg3/f.txt", []byte("edit")); err != nil {
		t.Fatal(err)
	}
	v3, err := again.Commit(opts("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := diff(records(v2), records(v3)); len(got) != 0 {
		t.Errorf("records new in the version after a file-only edit: %v, want none", got)
	}
	if a, b := citeBlob(t, r, v2), citeBlob(t, r, v3); a != b {
		t.Errorf("a file-only edit wrote a new citation.cite: %s -> %s", a.Short(), b.Short())
	}

	if err := r.VCS.CreateBranch("side", v3); err != nil {
		t.Fatal(err)
	}
	side, _ := r.Checkout("side")
	if err := side.ModifyCite("/pkg1/f.txt", cite("theirs")); err != nil {
		t.Fatal(err)
	}
	sideTip, err := side.Commit(opts("s", 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := again.ModifyCite("/pkg2/f.txt", cite("ours")); err != nil {
		t.Fatal(err)
	}
	mainTip, err := again.Commit(opts("a", 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.MergeBranches("main", "side", MergeOptions{Citations: core.MergeOptions{Strategy: core.StrategyThreeWay}, Commit: opts("m", 6)})
	if err != nil {
		t.Fatal(err)
	}
	merged, ours, theirs := records(res.CommitID), records(mainTip), records(sideTip)
	if got, want := diff(ours, merged), []string{"/pkg1/f.txt"}; !reflect.DeepEqual(got, want) {
		t.Errorf("records the merge did not take from ours: %v, want %v", got, want)
	}
	if merged["/pkg1/f.txt"] != theirs["/pkg1/f.txt"] {
		t.Error("the entry only theirs changed is not theirs' own record")
	}
}

// TestCachedFunctionReadersRaceCommit: readers resolve through the cached
// function of a version and list its records while worktrees cloned from it
// commit — sharing its entry map until their first write, and its records
// (memo slots included) throughout. Run with -race.
func TestCachedFunctionReadersRaceCommit(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	var paths []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/d%d/f%d.txt", i%4, i)
		paths = append(paths, p)
		if err := wt.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			// Off-canonical dates: every first Encode writes memo slots
			// the readers are loading.
			c := cite(fmt.Sprint("o", i))
			c.CommittedDate = time.Unix(int64(i), 5)
			if err := wt.AddCite(p, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, err := wt.Commit(opts("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Drop the seeded function: the one readers share is then a cold decode
	// whose records carry no bytes until a writer's Encode fills them in.
	dropCachedFunctions(r)
	shared, err := r.ResolvedFunctionAt(base)
	if err != nil {
		t.Fatal(err)
	}
	want := shared.ActiveDomain()

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := r.Generate(base, paths[(i+g)%len(paths)]); err != nil {
					t.Error(err)
					return
				}
				for _, pr := range shared.Records() {
					if enc := pr.Record.Encoding(); enc != nil && len(enc.Bytes) == 0 {
						t.Errorf("%s: empty memo", pr.Path)
					}
				}
				if _, err := citefile.Encode(shared, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for w := 0; w < 3; w++ {
		branch := fmt.Sprint("w", w)
		if err := r.VCS.CreateBranch(branch, base); err != nil {
			t.Fatal(err)
		}
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			wt, err := r.Checkout(branch)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 15; i++ {
				p := paths[(2*i+w)%len(paths)]
				if err := wt.WriteFile(p, []byte(fmt.Sprint(w, i))); err != nil {
					t.Error(err)
					return
				}
				if err := wt.Function().Set(wt.Tree(), p, cite(fmt.Sprint("w", w, "-", i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := wt.Commit(opts(branch, int64(10+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if !reflect.DeepEqual(shared.ActiveDomain(), want) {
		t.Error("commits on worktrees cloned from a cached function changed it")
	}
}
