package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// countingStore wraps a Store and counts backend Gets; an optional delay
// widens the miss window so singleflight races are actually exercised.
type countingStore struct {
	Store
	gets  atomic.Int64
	delay time.Duration
}

func (c *countingStore) Get(id object.ID) (object.Object, error) {
	c.gets.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.Store.Get(id)
}

func TestCachedStoreHasStats(t *testing.T) {
	backend := NewMemoryStore()
	cs := NewCachedStore(backend, 8)
	id, err := cs.Put(object.NewBlobString("stats"))
	if err != nil {
		t.Fatal(err)
	}
	// Cached: Has must answer from the cache and count a hit.
	ok, err := cs.Has(id)
	if err != nil || !ok {
		t.Fatalf("Has cached = %v, %v", ok, err)
	}
	hits, misses := cs.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("after cached Has: hits=%d misses=%d, want 1/0", hits, misses)
	}
	// Uncached (present only in the backend): Has counts a miss.
	other, err := backend.Put(object.NewBlobString("backend only"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err = cs.Has(other)
	if err != nil || !ok {
		t.Fatalf("Has backend = %v, %v", ok, err)
	}
	// Absent everywhere: also a miss.
	ghost := object.Hash(object.NewBlobString("ghost"))
	if ok, err := cs.Has(ghost); err != nil || ok {
		t.Fatalf("Has ghost = %v, %v", ok, err)
	}
	hits, misses = cs.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("final stats: hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestCachedStoreSingleflight launches many concurrent Gets for one
// uncached object; the backend must be consulted exactly once.
func TestCachedStoreSingleflight(t *testing.T) {
	backend := NewMemoryStore()
	id, err := backend.Put(object.NewBlobString("hot object"))
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingStore{Store: backend, delay: 20 * time.Millisecond}
	cs := NewCachedStore(counting, 8)

	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			o, err := cs.Get(id)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if o.Type() != object.TypeBlob {
				t.Errorf("Get returned %v", o.Type())
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := counting.gets.Load(); got != 1 {
		t.Errorf("backend consulted %d times for one hot object, want 1", got)
	}
	// The object is cached now; further Gets stay off the backend.
	if _, err := cs.Get(id); err != nil {
		t.Fatal(err)
	}
	if got := counting.gets.Load(); got != 1 {
		t.Errorf("cached Get hit the backend (%d fetches)", got)
	}
}

// TestCachedStoreSingleflightError checks that waiters observe the
// leader's error and that a failed fetch is not cached.
func TestCachedStoreSingleflightError(t *testing.T) {
	backend := NewMemoryStore()
	counting := &countingStore{Store: backend, delay: 10 * time.Millisecond}
	cs := NewCachedStore(counting, 8)
	ghost := object.Hash(object.NewBlobString("missing"))

	const n = 8
	var wg sync.WaitGroup
	var errs atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := cs.Get(ghost); err != nil {
				errs.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if errs.Load() != n {
		t.Errorf("%d/%d concurrent Gets reported the miss", errs.Load(), n)
	}
	// A later Get retries the backend (errors are not cached).
	before := counting.gets.Load()
	if _, err := cs.Get(ghost); err == nil {
		t.Error("ghost Get succeeded")
	}
	if counting.gets.Load() == before {
		t.Error("failed fetch was cached; backend not retried")
	}
}

// TestFileStoreConcurrent drives parallel Put/Get/Has on a PackStore
// opened over a legacy loose repository, while other goroutines re-put
// content the loose tier already holds; run with -race.
func TestFileStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	loose, err := newLooseWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := loose.Put(object.NewBlobString("shared content"))
	if err != nil {
		t.Fatal(err)
	}
	fs := newTestPackStore(t, dir)
	const writers = 4
	const objects = 50
	var wg sync.WaitGroup
	ids := make([][]object.ID, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < objects; i++ {
				id, err := fs.Put(object.NewBlobString(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				ids[w] = append(ids[w], id)
				// Read back own writes while other stripes churn.
				if _, err := fs.Get(id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok, err := fs.Has(id); err != nil || !ok {
					t.Errorf("Has = %v, %v", ok, err)
					return
				}
			}
		}(w)
	}
	// Concurrent duplicate Puts of content stored loose must all succeed.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < objects; i++ {
				if _, err := fs.Put(object.NewBlobString("shared content")); err != nil {
					t.Errorf("dup Put: %v", err)
					return
				}
				if _, err := fs.Get(shared); err != nil {
					t.Errorf("Get loose: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := fs.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := writers*objects + 1; n != want {
		t.Errorf("Len = %d, want %d", n, want)
	}
	if got := fs.Stats().PackedObjects; got != writers*objects {
		t.Errorf("%d objects packed, want %d: content stored loose was packed again", got, writers*objects)
	}
}

// TestCachedStoreConcurrent drives parallel Put/Get/Has and raw batches
// with write-through trees through the sharded cache over a live backend;
// run with -race.
func TestCachedStoreConcurrent(t *testing.T) {
	cs := NewCachedStore(NewMemoryStore(), 64)
	var seed []object.ID
	for i := 0; i < 32; i++ {
		id, err := cs.Put(object.NewBlobString(fmt.Sprintf("seed %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		seed = append(seed, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := seed[(w+i)%len(seed)]
				if _, err := cs.Get(id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok, err := cs.Has(id); err != nil || !ok {
					t.Errorf("Has = %v, %v", ok, err)
					return
				}
				if i%50 == 0 {
					blobID, err := cs.Put(object.NewBlobString(fmt.Sprintf("w%d-%d", w, i)))
					if err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					// A commit's raw batch: the tree rides along decoded and
					// must be readable the moment the batch is acknowledged.
					tree, err := object.NewTree([]object.TreeEntry{{Name: "f", Mode: object.ModeFile, ID: blobID}})
					if err != nil {
						t.Errorf("NewTree: %v", err)
						return
					}
					enc := object.Encode(tree)
					treeID := object.HashBytes(enc)
					if err := cs.PutManyEncoded([]Encoded{{ID: treeID, Enc: enc, Obj: tree}}); err != nil {
						t.Errorf("PutManyEncoded: %v", err)
						return
					}
					got, err := GetTree(cs, treeID)
					if err != nil || got.Len() != 1 {
						t.Errorf("GetTree after write-through = %v, %v", got, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := cs.Stats()
	if hits == 0 {
		t.Errorf("no cache hits recorded (hits=%d misses=%d)", hits, misses)
	}
}
