package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func deepPath(depth int) string {
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = fmt.Sprintf("dir%d", i)
	}
	return "/" + strings.Join(parts, "/") + "/leaf.txt"
}

func TestPathTableInternCanonical(t *testing.T) {
	var tbl PathTable
	a, err := tbl.Intern("/src/pkg/file.go")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.Intern("/src/pkg/file.go")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("interning the same path twice returned distinct keys")
	}
	c, err := tbl.Intern("src/pkg/file.go") // un-clean spelling of the same path
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("interning an un-clean spelling returned a distinct key")
	}
	if a.Path() != "/src/pkg/file.go" {
		t.Errorf("Path() = %q", a.Path())
	}
	// The ancestor chain is pre-linked up to the root and shared.
	pkg := a.Parent()
	if pkg == nil || pkg.Path() != "/src/pkg" {
		t.Fatalf("parent = %v", pkg)
	}
	src := pkg.Parent()
	root := src.Parent()
	if src.Path() != "/src" || root.Path() != "/" || root.Parent() != nil {
		t.Errorf("ancestor chain wrong: %q %q", src.Path(), root.Path())
	}
	if k, _ := tbl.Intern("/src"); k != src {
		t.Error("ancestor key not shared with directly interned path")
	}
	// file + pkg + src + root
	if tbl.Len() != 4 {
		t.Errorf("Len = %d, want 4", tbl.Len())
	}
	if _, err := tbl.Intern("//../x/.."); err == nil {
		// CleanPath accepts some of these; only assert no panic and a
		// consistent answer.
		t.Log("path cleaned successfully")
	}
}

// TestResolveKeyMatchesResolve pins ResolveKey to Resolve's semantics over
// a function with entries at several depths.
func TestResolveKeyMatchesResolve(t *testing.T) {
	fn := MustNewFunction(Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}})
	tree := MustPathSet("/a/b/c/d.txt", "/x/y.txt")
	if err := fn.Add(tree, "/a/b", Citation{Owner: "o2", RepoName: "sub", URL: "u2", Version: "2"}); err != nil {
		t.Fatal(err)
	}
	var tbl PathTable
	for _, p := range []string{"/a/b/c/d.txt", "/a/b", "/a", "/x/y.txt", "/"} {
		k, err := tbl.Intern(p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // a repeat must answer the same
			kc, kf, kerr := fn.ResolveKey(k)
			sc, sf, serr := fn.Resolve(p)
			if (kerr == nil) != (serr == nil) || kf != sf || !kc.Equal(sc) {
				t.Errorf("pass %d: ResolveKey(%q) = (%v, %q, %v); Resolve = (%v, %q, %v)",
					pass, p, kc, kf, kerr, sc, sf, serr)
			}
		}
	}
}

// TestResolveKeyInvalidatedByMutation: a keyed resolution sees a mutation
// made after an earlier resolution of the same key.
func TestResolveKeyInvalidatedByMutation(t *testing.T) {
	fn := MustNewFunction(Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}})
	tree := MustPathSet("/a/b/c.txt")
	var tbl PathTable
	k, err := tbl.Intern("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, from, err := fn.ResolveKey(k); err != nil || from != "/" {
		t.Fatalf("cold resolve = %q, %v; want root", from, err)
	}
	if err := fn.Add(tree, "/a/b", Citation{Owner: "o2", RepoName: "sub", URL: "u", Version: "2"}); err != nil {
		t.Fatal(err)
	}
	if _, from, err := fn.ResolveKey(k); err != nil || from != "/a/b" {
		t.Errorf("post-mutation resolve = %q, %v; want /a/b", from, err)
	}
}

// TestResolveKeyCloneIndependence: mutating one side of a copy-on-write
// clone must not leak into the other's keyed resolutions.
func TestResolveKeyCloneIndependence(t *testing.T) {
	fn := MustNewFunction(Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}})
	tree := MustPathSet("/a/b.txt")
	var tbl PathTable
	k, _ := tbl.Intern("/a/b.txt")
	if _, _, err := fn.ResolveKey(k); err != nil {
		t.Fatal(err)
	}
	snap := fn.Clone()
	if err := fn.Add(tree, "/a", Citation{Owner: "o2", RepoName: "sub", URL: "u", Version: "2"}); err != nil {
		t.Fatal(err)
	}
	if _, from, _ := fn.ResolveKey(k); from != "/a" {
		t.Errorf("mutated side resolves from %q, want /a", from)
	}
	if _, from, _ := snap.ResolveKey(k); from != "/" {
		t.Errorf("clone resolves from %q, want / (pre-mutation state)", from)
	}
}

// TestResolveKeyConcurrent hammers keyed resolves against concurrent
// mutators (run with -race).
func TestResolveKeyConcurrent(t *testing.T) {
	fn := MustNewFunction(Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}})
	tree := MustPathSet("/a/b/c.txt", "/d/e.txt")
	var tbl PathTable
	keys := make([]*PathKey, 0, 3)
	for _, p := range []string{"/a/b/c.txt", "/d/e.txt", "/a/b"} {
		k, err := tbl.Intern(p)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, _, err := fn.ResolveKey(keys[(w+i)%len(keys)]); err != nil {
					t.Errorf("ResolveKey: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c := Citation{Owner: "o2", RepoName: "sub", URL: "u", Version: fmt.Sprint(i)}
			if err := fn.Set(tree, "/a/b", c); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// BenchmarkResolveWarmByDepth and BenchmarkResolveKeyWarmByDepth price a
// repeat resolution at depth: both walk every ancestor of a path cited only
// at the root, so their cost grows with depth.
func benchDepthFunction(b *testing.B, depth int) (*Function, string) {
	b.Helper()
	fn := MustNewFunction(Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1", AuthorList: []string{"a"}})
	return fn, deepPath(depth)
}

func BenchmarkResolveWarmByDepth(b *testing.B) {
	for _, depth := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			fn, path := benchDepthFunction(b, depth)
			if _, _, err := fn.Resolve(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fn.Resolve(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkResolveKeyWarmByDepth(b *testing.B) {
	for _, depth := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			fn, path := benchDepthFunction(b, depth)
			var tbl PathTable
			k, err := tbl.Intern(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := fn.ResolveKey(k); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fn.ResolveKey(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
