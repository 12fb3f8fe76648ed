package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

func testTime() time.Time { return time.Unix(1536030000, 0) }

func batchStores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"memory": NewMemoryStore(),
		"file":   NewCachedStore(newTestPackStore(t, t.TempDir()), 64),
		"cached": NewCachedStore(NewMemoryStore(), 64),
		"pack":   newTestPackStore(t, t.TempDir()),
	}
}

func TestPutManyHasMany(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			// A duplicate inside the batch must be tolerated.
			objs := make([]object.Object, 0, 21)
			for i := 0; i < 20; i++ {
				objs = append(objs, object.NewBlob([]byte(fmt.Sprintf("blob %d", i))))
			}
			objs = append(objs, object.NewBlob([]byte("blob 0")))
			ids, err := PutMany(s, objs)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(objs) {
				t.Fatalf("PutMany returned %d IDs for %d objects", len(ids), len(objs))
			}
			for i, o := range objs {
				if want := object.Hash(o); ids[i] != want {
					t.Errorf("ids[%d] = %s, want %s", i, ids[i].Short(), want.Short())
				}
				got, err := s.Get(ids[i])
				if err != nil {
					t.Fatalf("Get(%s): %v", ids[i].Short(), err)
				}
				if object.Hash(got) != ids[i] {
					t.Errorf("object %d round-trips to a different hash", i)
				}
			}
			if n, err := s.Len(); err != nil || n != 20 {
				t.Errorf("Len = %d, %v; want 20 (duplicate stored once)", n, err)
			}

			absent := object.HashBytes([]byte("never stored"))
			query := append(append([]object.ID(nil), ids[:5]...), absent, ids[7])
			have, err := HasMany(s, query)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if !have[i] {
					t.Errorf("HasMany missed stored object %d", i)
				}
			}
			if have[5] {
				t.Error("HasMany reported an absent object present")
			}
			if !have[6] {
				t.Error("HasMany missed stored object 7")
			}
		})
	}
}

func TestPutManyEncoded(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			batch := make([]Encoded, 0, 10)
			var ids []object.ID
			for i := 0; i < 10; i++ {
				enc := object.Encode(object.NewBlob([]byte(fmt.Sprintf("raw %d", i))))
				id := object.HashBytes(enc)
				batch = append(batch, Encoded{ID: id, Enc: enc})
				ids = append(ids, id)
			}
			if err := PutManyEncoded(s, batch); err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				o, err := s.Get(id)
				if err != nil {
					t.Fatalf("Get(%s): %v", id.Short(), err)
				}
				b, ok := o.(*object.Blob)
				if !ok || string(b.Data()) != fmt.Sprintf("raw %d", i) {
					t.Errorf("object %d decoded wrong: %#v", i, o)
				}
			}
			if n, err := s.Len(); err != nil || n != 10 {
				t.Errorf("Len = %d, %v; want 10", n, err)
			}
		})
	}
}

func TestPutManyConcurrent(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			// Overlapping batches from many goroutines: every store must
			// end up with exactly the union.
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					objs := make([]object.Object, 0, 30)
					for i := 0; i < 30; i++ {
						objs = append(objs, object.NewBlob([]byte(fmt.Sprintf("shared %d", (g+i)%25))))
					}
					if _, err := PutMany(s, objs); err != nil {
						t.Error(err)
					}
				}(g)
			}
			wg.Wait()
			if n, err := s.Len(); err != nil || n != 25 {
				t.Errorf("Len = %d, %v; want 25", n, err)
			}
		})
	}
}

func TestCopyClosureBatchedIncremental(t *testing.T) {
	src := NewMemoryStore()
	// Two commits: c2 -> c1, sharing one subtree so pruning matters.
	blobA := object.NewBlob([]byte("a"))
	blobB := object.NewBlob([]byte("b"))
	idA, _ := src.Put(blobA)
	idB, _ := src.Put(blobB)
	shared, err := object.NewTree([]object.TreeEntry{{Name: "a.txt", Mode: object.ModeFile, ID: idA}})
	if err != nil {
		t.Fatal(err)
	}
	sharedID, _ := src.Put(shared)
	root1, err := object.NewTree([]object.TreeEntry{{Name: "lib", Mode: object.ModeDir, ID: sharedID}})
	if err != nil {
		t.Fatal(err)
	}
	root1ID, _ := src.Put(root1)
	c1 := &object.Commit{TreeID: root1ID, Author: object.NewSignature("a", "a@x", testTime()), Committer: object.NewSignature("a", "a@x", testTime()), Message: "one"}
	c1ID, _ := src.Put(c1)
	root2, err := object.NewTree([]object.TreeEntry{
		{Name: "lib", Mode: object.ModeDir, ID: sharedID},
		{Name: "b.txt", Mode: object.ModeFile, ID: idB},
	})
	if err != nil {
		t.Fatal(err)
	}
	root2ID, _ := src.Put(root2)
	c2 := &object.Commit{TreeID: root2ID, Parents: []object.ID{c1ID}, Author: object.NewSignature("a", "a@x", testTime()), Committer: object.NewSignature("a", "a@x", testTime()), Message: "two"}
	c2ID, _ := src.Put(c2)

	dst := NewMemoryStore()
	n, err := CopyClosure(dst, src, c1ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // c1, root1, shared, blobA
		t.Errorf("first copy moved %d objects, want 4", n)
	}
	n, err = CopyClosure(dst, src, c2ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // c2, root2, blobB; shared subtree pruned
		t.Errorf("incremental copy moved %d objects, want 3", n)
	}
	n, err = CopyClosure(dst, src, c2ID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("repeat copy moved %d objects, want 0", n)
	}
	for _, id := range []object.ID{c1ID, c2ID, root1ID, root2ID, sharedID, idA, idB} {
		if ok, _ := dst.Has(id); !ok {
			t.Errorf("dst missing %s after closure copy", id.Short())
		}
	}
}
