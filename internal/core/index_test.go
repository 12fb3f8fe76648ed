package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestResolveIndexInvalidation drives every mutating operator and checks
// that resolution sees the new state immediately — an earlier resolution of
// the same path must never decide a later one.
func TestResolveIndexInvalidation(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("root"))

	// Resolve a deep path first: it comes from the root.
	if _, from, err := f.Resolve("/src/util/helpers.go"); err != nil || from != "/" {
		t.Fatalf("initial resolve from=%q err=%v", from, err)
	}

	// Add a closer ancestor: the same query must now come from it.
	if err := f.Add(tree, "/src", named("srcOwner")); err != nil {
		t.Fatal(err)
	}
	c, from, err := f.Resolve("/src/util/helpers.go")
	if err != nil || from != "/src" || c.Owner != "srcOwner" {
		t.Fatalf("after Add: owner=%q from=%q err=%v", c.Owner, from, err)
	}

	// Modify the entry: resolution must see the new citation.
	if err := f.Modify("/src", named("srcOwner2")); err != nil {
		t.Fatal(err)
	}
	if c, _, _ = f.Resolve("/src/util/helpers.go"); c.Owner != "srcOwner2" {
		t.Fatalf("after Modify: owner=%q", c.Owner)
	}

	// Chain resolution must also refresh.
	chain, err := f.ResolveChain("/src/util/helpers.go")
	if err != nil || len(chain) != 2 || chain[1].Citation.Owner != "srcOwner2" {
		t.Fatalf("after Modify chain=%v err=%v", chain, err)
	}
	if err := f.Add(tree, "/src/util", named("utilOwner")); err != nil {
		t.Fatal(err)
	}
	if chain, _ = f.ResolveChain("/src/util/helpers.go"); len(chain) != 3 {
		t.Fatalf("after Add chain length=%d, want 3", len(chain))
	}

	// Rename rekeys the subtree: old and new locations must both resolve
	// correctly.
	if err := f.Rename("/src", "/lib"); err != nil {
		t.Fatal(err)
	}
	if _, from, _ := f.Resolve("/src/util/helpers.go"); from != "/" {
		t.Fatalf("after Rename old path from=%q, want /", from)
	}
	if c, from, _ := f.Resolve("/lib/util/helpers.go"); from != "/lib/util" || c.Owner != "utilOwner" {
		t.Fatalf("after Rename new path owner=%q from=%q", c.Owner, from)
	}

	// Delete falls back to the next ancestor.
	if err := f.Delete("/lib/util"); err != nil {
		t.Fatal(err)
	}
	if _, from, _ := f.Resolve("/lib/util/helpers.go"); from != "/lib" {
		t.Fatalf("after Delete from=%q, want /lib", from)
	}

	// Prune of paths no longer in the tree is seen too (nothing under /lib
	// exists in demoTree).
	if removed := f.Prune(demoTree()); len(removed) != 1 || removed[0] != "/lib" {
		t.Fatalf("Prune removed %v, want [/lib]", removed)
	}
	if _, from, _ := f.Resolve("/lib/util/helpers.go"); from != "/" {
		t.Fatalf("after Prune from=%q, want /", from)
	}
}

// TestCloneCopyOnWrite checks snapshot independence in both directions and
// across chained clones — mutations on either side must never leak.
func TestCloneCopyOnWrite(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("root"))
	if err := f.Add(tree, "/src", named("s")); err != nil {
		t.Fatal(err)
	}
	// Resolve on f before cloning; the clone answers from its own entries.
	if _, _, err := f.Resolve("/src/main.go"); err != nil {
		t.Fatal(err)
	}

	snap := f.Clone()
	if !snap.Equal(f) {
		t.Fatal("clone not equal to source")
	}

	// Mutate the source: the snapshot must keep the old state.
	if err := f.Modify("/src", named("changed")); err != nil {
		t.Fatal(err)
	}
	if c, _, _ := snap.Resolve("/src/main.go"); c.Owner != "s" {
		t.Fatalf("snapshot saw source mutation: owner=%q", c.Owner)
	}
	if c, _, _ := f.Resolve("/src/main.go"); c.Owner != "changed" {
		t.Fatalf("source mutation lost: owner=%q", c.Owner)
	}

	// Mutate the snapshot: the source must be unaffected.
	if err := snap.Delete("/src"); err != nil {
		t.Fatal(err)
	}
	if !f.Has("/src") {
		t.Fatal("deleting on snapshot removed source entry")
	}

	// Chained clones: each layer independent.
	a := f.Clone()
	b := a.Clone()
	if err := a.Add(tree, "/README.md", named("doc")); err != nil {
		t.Fatal(err)
	}
	if b.Has("/README.md") || !a.Has("/README.md") {
		t.Fatal("chained clone not independent")
	}
}

// TestConcurrentResolve hammers one function with parallel readers while a
// writer churns a disjoint subtree; run with -race. Readers must always see
// a consistent answer (one of the valid states), never a torn one.
func TestConcurrentResolve(t *testing.T) {
	tree := demoTree()
	f := MustNewFunction(named("root"))
	if err := f.Add(tree, "/CoreCover", named("cc")); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const iters = 2000
	var readersWG, writerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writer: churn an explicit citation on /README.md.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if f.Has("/README.md") {
				err = f.Delete("/README.md")
			} else {
				err = f.Add(tree, "/README.md", named(fmt.Sprintf("doc%d", i)))
			}
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; i < iters; i++ {
				c, from, err := f.Resolve("/CoreCover/tests/t1.py")
				if err != nil || from != "/CoreCover" || c.Owner != "cc" {
					t.Errorf("reader %d: owner=%q from=%q err=%v", r, c.Owner, from, err)
					return
				}
				// The churned path resolves to either state, never a third.
				c, from, err = f.Resolve("/README.md")
				if err != nil || (from != "/" && from != "/README.md") {
					t.Errorf("reader %d churned path: from=%q err=%v", r, from, err)
					return
				}
				if _, err := f.ResolveChain("/src/util/helpers.go"); err != nil {
					t.Errorf("reader %d chain: %v", r, err)
					return
				}
				_ = f.Len()
				_ = f.Has("/CoreCover")
			}
		}(r)
	}

	// Concurrent cloners simulate commits snapshotting mid-churn.
	for s := 0; s < 2; s++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for i := 0; i < 200; i++ {
				snap := f.Clone()
				if c, _, err := snap.Resolve("/CoreCover/rewrite.py"); err != nil || c.Owner != "cc" {
					t.Errorf("snapshot resolve: owner=%q err=%v", c.Owner, err)
					return
				}
			}
		}()
	}

	readersWG.Wait()
	close(stop)
	writerWG.Wait()
}
