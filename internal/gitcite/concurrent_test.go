package gitcite

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// TestParallelGenerate drives Generate/GenerateChain from many goroutines
// across several committed versions while new commits land — the hosting
// platform's read/write mix — and checks every answer; run with -race.
// All readers of one commit share the cached function, so this also
// exercises concurrent reads of a single Function.
func TestParallelGenerate(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/src/main.go", []byte("package main\n")); err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/vendor/lib.go", []byte("package lib\n")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("leshang", 1_500_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/vendor", cite("extdev")); err != nil {
		t.Fatal(err)
	}
	c2, err := wt.Commit(opts("leshang", 1_500_000_100))
	if err != nil {
		t.Fatal(err)
	}

	commits := []object.ID{c1, c2}
	wantFrom := []string{"/", "/vendor"} // for /vendor/lib.go per commit

	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % len(commits)
				citeOut, from, err := r.Generate(commits[k], "/vendor/lib.go")
				if err != nil {
					t.Errorf("Generate: %v", err)
					return
				}
				if from != wantFrom[k] {
					t.Errorf("commit %d: from=%q want %q", k, from, wantFrom[k])
					return
				}
				// Root-sourced citations get the version's commit stamped in.
				if from == "/" && citeOut.CommitID != commits[k].Short() {
					t.Errorf("root citation commit=%q want %q", citeOut.CommitID, commits[k].Short())
					return
				}
				chain, err := r.GenerateChain(commits[k], "/vendor/lib.go")
				if err != nil {
					t.Errorf("GenerateChain: %v", err)
					return
				}
				if want := k + 1; len(chain) != want {
					t.Errorf("chain length=%d want %d", len(chain), want)
					return
				}
			}
		}(g)
	}

	// A writer keeps committing new versions on a separate branch while the
	// readers resolve the old ones.
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bwt, err := r.Checkout("main")
		if err != nil {
			t.Errorf("writer checkout: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			if err := bwt.WriteFile("/churn.txt", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("writer write: %v", err)
				return
			}
			if _, err := bwt.Commit(opts("writer", 1_500_001_000+int64(i))); err != nil {
				t.Errorf("writer commit: %v", err)
				return
			}
		}
	}()

	readers.Wait()
	writer.Wait()
}

// TestFunctionAtIsolatedFromCache checks that mutating the snapshot
// FunctionAt returns never leaks into the shared cached function other
// readers resolve against.
func TestFunctionAtIsolatedFromCache(t *testing.T) {
	r := newRepo(t)
	wt, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/src/main.go", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/src", cite("srcdev")); err != nil {
		t.Fatal(err)
	}
	c1, err := wt.Commit(opts("leshang", 1_500_000_000))
	if err != nil {
		t.Fatal(err)
	}

	fn, err := r.FunctionAt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Modify("/src", cite("hijacked")); err != nil {
		t.Fatal(err)
	}
	// The shared read path must still see the committed citation.
	got, from, err := r.Generate(c1, "/src/main.go")
	if err != nil || from != "/src" || got.Owner != "srcdev" {
		t.Errorf("Generate after snapshot mutation: owner=%q from=%q err=%v", got.Owner, from, err)
	}
	shared, err := r.ResolvedFunctionAt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if sc, _ := shared.Get("/src"); sc.Owner != "srcdev" {
		t.Errorf("cached function mutated: owner=%q", sc.Owner)
	}
}

// TestConcurrentCommitsOnOneTip races two worktrees checked out at the same
// tip of one branch: exactly one commit lands, the other gets
// ErrStaleWorktree, and the branch holds the one that landed.
func TestConcurrentCommitsOnOneTip(t *testing.T) {
	r := newRepo(t)
	seed, err := r.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.WriteFile("/seed.txt", []byte("seed\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(opts("leshang", 1_500_000_000)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		var wts [2]*Worktree
		for i := range wts {
			if wts[i], err = r.Checkout("main"); err != nil {
				t.Fatal(err)
			}
			if err := wts[i].WriteFile(fmt.Sprintf("/r%d/w%d.txt", round, i), []byte("x\n")); err != nil {
				t.Fatal(err)
			}
		}
		var ids [2]object.ID
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range wts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				ids[i], errs[i] = wts[i].Commit(opts("leshang", 1_500_000_001+int64(round)))
			}(i)
		}
		close(start)
		wg.Wait()
		won := -1
		for i, err := range errs {
			switch {
			case err == nil && won < 0:
				won = i
			case err == nil:
				t.Fatalf("round %d: both commits on one tip succeeded", round)
			case !errors.Is(err, ErrStaleWorktree):
				t.Fatalf("round %d: losing commit: %v, want ErrStaleWorktree", round, err)
			}
		}
		if won < 0 {
			t.Fatalf("round %d: neither commit landed: %v", round, errs)
		}
		if tip, err := r.VCS.BranchTip("main"); err != nil || tip != ids[won] {
			t.Fatalf("round %d: tip %s, %v; want the winner %s", round, tip.Short(), err, ids[won].Short())
		}
	}
}

// TestMergeRacingCommitKeepsCommit races MergeBranches into main against a
// worktree commit on main, through a fast-forward and a merge commit: a
// commit that succeeds is always in main's history afterwards, and a merge
// that lost the race fails with vcs.ErrTipMoved.
func TestMergeRacingCommitKeepsCommit(t *testing.T) {
	for round := 0; round < 60; round++ {
		fastForward := round%2 == 0
		r := newRepo(t)
		wt, err := r.Checkout("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := wt.WriteFile("/base.txt", []byte("base\n")); err != nil {
			t.Fatal(err)
		}
		base, err := wt.Commit(opts("leshang", 1_500_000_000))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VCS.CreateBranch("side", base); err != nil {
			t.Fatal(err)
		}
		side, err := r.Checkout("side")
		if err != nil {
			t.Fatal(err)
		}
		if err := side.WriteFile("/side.txt", []byte("side\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := side.Commit(opts("leshang", 1_500_000_010)); err != nil {
			t.Fatal(err)
		}
		if !fastForward {
			if err := wt.WriteFile("/main.txt", []byte("main\n")); err != nil {
				t.Fatal(err)
			}
			if _, err := wt.Commit(opts("leshang", 1_500_000_020)); err != nil {
				t.Fatal(err)
			}
		}
		if err := wt.WriteFile("/racer.txt", []byte("racer\n")); err != nil {
			t.Fatal(err)
		}

		var commitID object.ID
		var commitErr, mergeErr error
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			commitID, commitErr = wt.Commit(opts("leshang", 1_500_000_030))
		}()
		go func() {
			defer wg.Done()
			<-start
			_, mergeErr = r.MergeBranches("main", "side", MergeOptions{Commit: opts("leshang", 1_500_000_040)})
		}()
		close(start)
		wg.Wait()

		if mergeErr != nil && !errors.Is(mergeErr, vcs.ErrTipMoved) {
			t.Fatalf("round %d: merge: %v", round, mergeErr)
		}
		if commitErr != nil {
			if !errors.Is(commitErr, ErrStaleWorktree) {
				t.Fatalf("round %d: commit: %v", round, commitErr)
			}
			if mergeErr != nil {
				t.Fatalf("round %d: both the merge and the commit failed", round)
			}
			continue
		}
		tip, err := r.VCS.BranchTip("main")
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := r.VCS.IsAncestor(commitID, tip); err != nil || !ok {
			t.Fatalf("round %d (fast-forward %v): commit %s dropped from main (tip %s, merge err %v)",
				round, fastForward, commitID.Short(), tip.Short(), mergeErr)
		}
	}
}
