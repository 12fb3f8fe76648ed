package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// stores returns one of each Store implementation, fresh per call, plus
// "file": the stack a file-backed repository opens, a decoded-object cache
// over a PackStore.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"memory": NewMemoryStore(),
		"file":   NewCachedStore(newTestPackStore(t, filepath.Join(t.TempDir(), "objects")), 16),
		"cached": NewCachedStore(NewMemoryStore(), 16),
		"pack":   newTestPackStore(t, filepath.Join(t.TempDir(), "objects-pack")),
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			blob := object.NewBlobString("citation data")
			id, err := s.Put(blob)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if id != blob.ID() {
				t.Errorf("Put returned %s, want %s", id, blob.ID())
			}
			got, err := s.Get(id)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got.(*object.Blob).Data(), blob.Data()) {
				t.Error("content mismatch after round trip")
			}
		})
	}
}

func TestStoreGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			missing := object.NewBlobString("never stored").ID()
			if _, err := s.Get(missing); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get(missing) error = %v, want ErrNotFound", err)
			}
			ok, err := s.Has(missing)
			if err != nil || ok {
				t.Errorf("Has(missing) = %v, %v", ok, err)
			}
		})
	}
}

func TestStorePutIdempotent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			blob := object.NewBlobString("dup")
			id1, err := s.Put(blob)
			if err != nil {
				t.Fatal(err)
			}
			id2, err := s.Put(object.NewBlobString("dup"))
			if err != nil {
				t.Fatal(err)
			}
			if id1 != id2 {
				t.Error("identical content produced different IDs")
			}
			n, err := s.Len()
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("Len = %d, want 1", n)
			}
		})
	}
}

func TestStoreAllObjectTypes(t *testing.T) {
	tree, err := object.NewTree([]object.TreeEntry{
		{Name: "f", Mode: object.ModeFile, ID: object.NewBlobString("x").ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := &object.Commit{
		TreeID:    tree.ID(),
		Author:    object.NewSignature("a", "a@x", time.Unix(100, 0)),
		Committer: object.NewSignature("a", "a@x", time.Unix(100, 0)),
		Message:   "m",
	}
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, o := range []object.Object{object.NewBlobString("x"), tree, commit} {
				id, err := s.Put(o)
				if err != nil {
					t.Fatalf("Put(%v): %v", o.Type(), err)
				}
				got, err := s.Get(id)
				if err != nil {
					t.Fatalf("Get(%v): %v", o.Type(), err)
				}
				if got.Type() != o.Type() {
					t.Errorf("type = %v, want %v", got.Type(), o.Type())
				}
			}
			if _, err := GetBlob(s, object.NewBlobString("x").ID()); err != nil {
				t.Errorf("GetBlob: %v", err)
			}
			if _, err := GetTree(s, tree.ID()); err != nil {
				t.Errorf("GetTree: %v", err)
			}
			if _, err := GetCommit(s, commit.ID()); err != nil {
				t.Errorf("GetCommit: %v", err)
			}
			// typed getters reject wrong kinds
			if _, err := GetCommit(s, tree.ID()); err == nil {
				t.Error("GetCommit(tree) succeeded")
			}
			if _, err := GetTree(s, commit.ID()); err == nil {
				t.Error("GetTree(commit) succeeded")
			}
			if _, err := GetBlob(s, tree.ID()); err == nil {
				t.Error("GetBlob(tree) succeeded")
			}
		})
	}
}

func TestStoreIDsAndLen(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			want := map[object.ID]bool{}
			for i := 0; i < 20; i++ {
				b := object.NewBlobString(fmt.Sprintf("obj-%d", i))
				id, err := s.Put(b)
				if err != nil {
					t.Fatal(err)
				}
				want[id] = true
			}
			ids, err := s.IDs()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(want) {
				t.Fatalf("IDs len = %d, want %d", len(ids), len(want))
			}
			for _, id := range ids {
				if !want[id] {
					t.Errorf("unexpected id %s", id.Short())
				}
			}
			n, err := s.Len()
			if err != nil || n != len(want) {
				t.Errorf("Len = %d, %v; want %d", n, err, len(want))
			}
		})
	}
}

// TestFileStorePersistence: an object in a repository's legacy loose
// layout reads back through a freshly opened PackStore.
func TestFileStorePersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	fs, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Put(object.NewBlobString("durable"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTestPackStore(t, dir).Get(id)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if string(got.(*object.Blob).Data()) != "durable" {
		t.Error("content mismatch after reopen")
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	fs, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Put(object.NewBlobString("to be corrupted"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id.String()[:2], id.String()[2:])
	if err := os.WriteFile(path, []byte("junk, not zlib"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newTestPackStore(t, dir).Get(id); err == nil {
		t.Error("Get of corrupted object succeeded")
	}
}

func TestFileStoreHashVerification(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	fs, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs.Put(object.NewBlobString("aaa"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.Put(object.NewBlobString("bbb"))
	if err != nil {
		t.Fatal(err)
	}
	// Swap b's file into a's path: content no longer matches the ID.
	aPath := filepath.Join(dir, a.String()[:2], a.String()[2:])
	bPath := filepath.Join(dir, b.String()[:2], b.String()[2:])
	data, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newTestPackStore(t, dir).Get(a); err == nil {
		t.Error("hash-mismatched object accepted")
	}
}

func TestCachedStoreHitsAndEviction(t *testing.T) {
	backend := NewMemoryStore()
	cs := NewCachedStore(backend, 2)
	var ids []object.ID
	for i := 0; i < 3; i++ {
		id, err := cs.Put(object.NewBlobString(fmt.Sprintf("c%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Capacity 2: oldest (ids[0]) evicted, newest two cached.
	if _, err := cs.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	hits, misses := cs.Stats()
	if hits != 2 || misses != 0 {
		t.Errorf("after cached gets: hits=%d misses=%d, want 2/0", hits, misses)
	}
	if _, err := cs.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	_, misses = cs.Stats()
	if misses != 1 {
		t.Errorf("evicted get misses=%d, want 1", misses)
	}
}

func TestCachedStoreZeroCapacityPassThrough(t *testing.T) {
	cs := NewCachedStore(NewMemoryStore(), 0)
	id, err := cs.Put(object.NewBlobString("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(id); err != nil {
		t.Fatal(err)
	}
	hits, _ := cs.Stats()
	if hits != 0 {
		t.Errorf("pass-through cache recorded %d hits", hits)
	}
}

func TestCopyClosure(t *testing.T) {
	src := NewMemoryStore()
	blob := object.NewBlobString("file content")
	blobID, _ := src.Put(blob)
	tree, err := object.NewTree([]object.TreeEntry{{Name: "f", Mode: object.ModeFile, ID: blobID}})
	if err != nil {
		t.Fatal(err)
	}
	treeID, _ := src.Put(tree)
	base := &object.Commit{
		TreeID:    treeID,
		Author:    object.NewSignature("a", "a@x", time.Unix(1, 0)),
		Committer: object.NewSignature("a", "a@x", time.Unix(1, 0)),
		Message:   "base",
	}
	baseID, _ := src.Put(base)
	tip := &object.Commit{
		TreeID:    treeID,
		Parents:   []object.ID{baseID},
		Author:    object.NewSignature("a", "a@x", time.Unix(2, 0)),
		Committer: object.NewSignature("a", "a@x", time.Unix(2, 0)),
		Message:   "tip",
	}
	tipID, _ := src.Put(tip)
	// An unreachable object must not be copied.
	if _, err := src.Put(object.NewBlobString("unreachable")); err != nil {
		t.Fatal(err)
	}

	dst := NewMemoryStore()
	n, err := CopyClosure(dst, src, tipID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // tip, base, tree, blob
		t.Errorf("copied %d objects, want 4", n)
	}
	for _, id := range []object.ID{tipID, baseID, treeID, blobID} {
		if ok, _ := dst.Has(id); !ok {
			t.Errorf("closure missing %s", id.Short())
		}
	}
	// Second copy is incremental: nothing new.
	n, err = CopyClosure(dst, src, tipID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("re-copy transferred %d objects, want 0", n)
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errCh := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						b := object.NewBlobString(fmt.Sprintf("g%d-i%d", g, i%5))
						id, err := s.Put(b)
						if err != nil {
							errCh <- err
							return
						}
						if _, err := s.Get(id); err != nil {
							errCh <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Errorf("concurrent op: %v", err)
			}
		})
	}
}

// quick-check property: for random payloads, Put/Get round-trips bytes on
// both the memory and pack stores and both agree on the ID.
func TestQuickStoreRoundTrip(t *testing.T) {
	fs := newTestPackStore(t, filepath.Join(t.TempDir(), "objects"))
	ms := NewMemoryStore()
	f := func(data []byte) bool {
		b := object.NewBlob(data)
		id1, err1 := ms.Put(b)
		id2, err2 := fs.Put(b)
		if err1 != nil || err2 != nil || id1 != id2 {
			return false
		}
		g1, err1 := ms.Get(id1)
		g2, err2 := fs.Get(id2)
		if err1 != nil || err2 != nil {
			return false
		}
		return bytes.Equal(g1.(*object.Blob).Data(), data) &&
			bytes.Equal(g2.(*object.Blob).Data(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
