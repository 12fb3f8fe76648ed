package gitcite

import (
	"fmt"
	"sync"
	"testing"

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
