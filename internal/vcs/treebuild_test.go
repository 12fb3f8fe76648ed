package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/gitcite/gitcite/internal/faultinject"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// countStore counts how many objects reach the store through Put/PutMany,
// i.e. how many objects a build actually re-encoded, re-hashed and wrote.
type countStore struct {
	store.Store
	puts int
}

func (c *countStore) Put(o object.Object) (object.ID, error) {
	c.puts++
	return c.Store.Put(o)
}

func (c *countStore) PutMany(objs []object.Object) ([]object.ID, error) {
	c.puts += len(objs)
	return store.PutMany(c.Store, objs)
}

func (c *countStore) PutManyEncoded(batch []store.Encoded) error {
	c.puts += len(batch)
	return store.PutManyEncoded(c.Store, batch)
}

// TestBuildTreeDeltaOneFileOpsBound is the write-path acceptance bound:
// committing one changed file into a 1000-file tree must re-hash and Put
// only the blob plus the trees on its path — (tree depth + 1) operations —
// never the other 999 blobs or their subtrees.
func TestBuildTreeDeltaOneFileOpsBound(t *testing.T) {
	s := &countStore{Store: store.NewMemoryStore()}
	files := make(map[string]FileContent, 1000)
	for d := 0; d < 10; d++ {
		for sd := 0; sd < 10; sd++ {
			for f := 0; f < 10; f++ {
				p := fmt.Sprintf("/d%d/s%d/f%d.txt", d, sd, f)
				files[p] = File("content of " + p)
			}
		}
	}
	base, err := BuildTree(s, files)
	if err != nil {
		t.Fatal(err)
	}

	s.puts = 0
	edited := "/d3/s4/f5.txt"
	root, err := BuildTreeDelta(s, base, map[string]TreeEdit{
		edited: {Data: []byte("changed")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path depth is 3 (root tree, d3, s4) plus the new blob: 4 operations.
	depth := len(SplitPath(edited))
	if s.puts > depth+1 {
		t.Errorf("one-file delta performed %d Puts, want <= depth+1 = %d", s.puts, depth+1)
	}

	// The incremental result must be bit-identical to a from-scratch build.
	files[edited] = File("changed")
	want, err := BuildTree(store.NewMemoryStore(), files)
	if err != nil {
		t.Fatal(err)
	}
	if root != want {
		t.Errorf("incremental root %s != from-scratch root %s", root.Short(), want.Short())
	}

	// Untouched sibling subtrees must be reused verbatim.
	for _, dir := range []string{"/d0", "/d3/s0"} {
		oldE, err := LookupPath(s, base, dir)
		if err != nil {
			t.Fatal(err)
		}
		newE, err := LookupPath(s, root, dir)
		if err != nil {
			t.Fatal(err)
		}
		if oldE.ID != newE.ID {
			t.Errorf("untouched subtree %s was rebuilt: %s -> %s", dir, oldE.ID.Short(), newE.ID.Short())
		}
	}
}

// editScript is the mutable state of one property-test run: a mirror of
// the intended file map plus the delta accumulated since the last base.
type editScript struct {
	mirror  map[string]string
	edits   map[string]TreeEdit
	removed map[string]bool
}

func (e *editScript) write(p, content string) {
	e.mirror[p] = content
	e.edits[p] = TreeEdit{Data: []byte(content)}
	delete(e.removed, p)
}

func (e *editScript) remove(p string) {
	delete(e.mirror, p)
	delete(e.edits, p)
	e.removed[p] = true
}

// canPlace reports whether adding a file at p keeps the mirror free of
// file/directory clashes.
func (e *editScript) canPlace(p string) bool {
	for q := range e.mirror {
		if p == q {
			continue // overwrite is fine
		}
		if IsAncestorPath(p, q) || IsAncestorPath(q, p) {
			return false
		}
	}
	return true
}

func (e *editScript) randomPath(rng *rand.Rand) string {
	depth := 1 + rng.Intn(4)
	p := ""
	for i := 0; i < depth; i++ {
		p += fmt.Sprintf("/%c%d", 'a'+rng.Intn(3), rng.Intn(3))
	}
	return p
}

func (e *editScript) randomExisting(rng *rand.Rand) (string, bool) {
	if len(e.mirror) == 0 {
		return "", false
	}
	paths := make([]string, 0, len(e.mirror))
	for p := range e.mirror {
		paths = append(paths, p)
	}
	return paths[rng.Intn(len(paths))], true
}

// assertCacheClaimsNothingBackendLacks checks, for every candidate ID, that
// the cache and the store below it agree on presence through Has, HasMany
// and Get — after a failed or torn batch the cache must hold none of the
// batch's objects.
func assertCacheClaimsNothingBackendLacks(t *testing.T, cache *store.CachedStore, backend store.Store, ids []object.ID) {
	t.Helper()
	below, err := store.HasMany(backend, ids)
	if err != nil {
		t.Fatal(err)
	}
	above, err := cache.HasMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		has, err := cache.Has(id)
		if err != nil {
			t.Fatal(err)
		}
		_, getErr := cache.Get(id)
		if above[i] != below[i] || has != below[i] || (getErr == nil) != below[i] {
			t.Errorf("object %s: backend has=%v, cache HasMany=%v Has=%v Get err=%v",
				id.Short(), below[i], above[i], has, getErr)
		}
	}
}

// TestBuildTreeDeltaEquivalenceProperty drives random add/modify/remove/
// move scripts and checks, round after round, that the incremental build
// against the previous round's root is bit-identical (same root tree ID)
// to a from-scratch build of the full file map.
//
// The store is the production stack — a write-through cache over a pack —
// so every base tree a round reads is one the previous round handed to the
// cache decoded, never one read back from disk. Two rounds per script lose
// their batch to an injected fault (one torn after its first object, one
// failed outright): the cache must then claim nothing the pack lacks, and
// the retry must land the same root. At the end every object the cache
// served re-encodes to the bytes a cold open of the directory returns.
func TestBuildTreeDeltaEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			pack, err := store.NewPackStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer pack.Close()
			sched := faultinject.NewSchedule(
				faultinject.Rule{Match: "PutManyEncoded", After: 3, Count: 1, Fault: faultinject.FaultTornBatch, Arg: 1},
				faultinject.Rule{Match: "PutManyEncoded", After: 8, Count: 1, Fault: faultinject.FaultErr},
			)
			s := store.NewCachedStore(faultinject.WrapStore("pack", sched, pack), 4096)
			served := map[object.ID][]byte{}
			es := &editScript{
				mirror:  map[string]string{},
				edits:   map[string]TreeEdit{},
				removed: map[string]bool{},
			}
			base := object.ZeroID
			for round := 0; round < 12; round++ {
				for op := 0; op < 8; op++ {
					switch rng.Intn(4) {
					case 0, 1: // add or modify
						p := es.randomPath(rng)
						if !es.canPlace(p) {
							continue
						}
						es.write(p, fmt.Sprintf("r%d-op%d-%d", round, op, rng.Int()))
					case 2: // remove
						if p, ok := es.randomExisting(rng); ok {
							es.remove(p)
						}
					case 3: // move one file to a fresh spot
						p, ok := es.randomExisting(rng)
						if !ok {
							continue
						}
						np := es.randomPath(rng)
						content := es.mirror[p]
						es.remove(p)
						if !es.canPlace(np) {
							continue // degraded to a plain remove
						}
						es.write(np, content)
					}
				}
				removed := make([]string, 0, len(es.removed))
				for p := range es.removed {
					removed = append(removed, p)
				}
				full := make(map[string]FileContent, len(es.mirror))
				for p, content := range es.mirror {
					full[p] = File(content)
				}
				scratch := store.NewMemoryStore()
				want, err := BuildTree(scratch, full)
				if err != nil {
					t.Fatalf("round %d: BuildTree: %v", round, err)
				}
				got, err := BuildTreeDelta(s, base, es.edits, removed)
				if errors.Is(err, faultinject.ErrInjected) {
					// The batch was lost: everything it held is in the
					// from-scratch closure, so that is the candidate set.
					var ids []object.ID
					err := store.WalkClosure(scratch, func(id object.ID, _ object.Object) error {
						ids = append(ids, id)
						return nil
					}, want)
					if err != nil {
						t.Fatal(err)
					}
					assertCacheClaimsNothingBackendLacks(t, s, pack, ids)
					got, err = BuildTreeDelta(s, base, es.edits, removed)
					if err != nil {
						t.Fatalf("round %d: retry after injected fault: %v", round, err)
					}
				} else if err != nil {
					t.Fatalf("round %d: BuildTreeDelta: %v", round, err)
				}
				if got != want {
					t.Fatalf("round %d: incremental root %s != from-scratch %s (files=%d, edits=%d, removed=%d)",
						round, got.Short(), want.Short(), len(es.mirror), len(es.edits), len(removed))
				}
				err = store.WalkClosure(s, func(id object.ID, o object.Object) error {
					served[id] = object.Encode(o)
					return nil
				}, got)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				base = got
				es.edits = map[string]TreeEdit{}
				es.removed = map[string]bool{}
			}
			if sched.Fired(0) != 1 || sched.Fired(1) != 1 {
				t.Errorf("faults fired %d torn, %d failed; want one of each", sched.Fired(0), sched.Fired(1))
			}

			if err := pack.Close(); err != nil {
				t.Fatal(err)
			}
			cold, err := store.NewPackStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			for id, enc := range served {
				o, err := cold.Get(id)
				if err != nil {
					t.Fatalf("cold open lacks %s, which the cache served: %v", id.Short(), err)
				}
				if !bytes.Equal(object.Encode(o), enc) {
					t.Errorf("object %s: the cache served bytes a cold open does not return", id.Short())
				}
			}
		})
	}
}

func TestBuildTreeDeltaRemovals(t *testing.T) {
	s := store.NewMemoryStore()
	base, err := BuildTree(s, map[string]FileContent{
		"/a/b/deep.txt": File("x"),
		"/a/keep.txt":   File("y"),
		"/top.txt":      File("z"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Removing the only file of a directory prunes the directory.
	got, err := BuildTreeDelta(s, base, nil, []string{"/a/b/deep.txt"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildTree(s, map[string]FileContent{
		"/a/keep.txt": File("y"),
		"/top.txt":    File("z"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("empty-dir pruning: got %s, want %s", got.Short(), want.Short())
	}

	// Removing an absent path is a no-op, not an error.
	same, err := BuildTreeDelta(s, base, nil, []string{"/no/such/file", "/top.txt/not-a-dir"})
	if err != nil {
		t.Fatalf("removing absent paths: %v", err)
	}
	if same != base {
		t.Errorf("no-op removal changed the root: %s -> %s", base.Short(), same.Short())
	}

	// Removing everything yields the empty tree, like BuildTree(nil).
	empty, err := BuildTreeDelta(s, base, nil, []string{"/a/b/deep.txt", "/a/keep.txt", "/top.txt"})
	if err != nil {
		t.Fatal(err)
	}
	wantEmpty, err := BuildTree(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty != wantEmpty {
		t.Errorf("remove-all: got %s, want empty tree %s", empty.Short(), wantEmpty.Short())
	}
}

func TestBuildTreeDeltaBlobRefEdit(t *testing.T) {
	s := store.NewMemoryStore()
	base, err := BuildTree(s, map[string]FileContent{"/src/f.txt": File("hello")})
	if err != nil {
		t.Fatal(err)
	}
	e, err := LookupPath(s, base, "/src/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Move the file by reference: no blob bytes supplied at all.
	got, err := BuildTreeDelta(s, base,
		map[string]TreeEdit{"/dst/f.txt": {BlobID: e.ID, Mode: e.Mode}},
		[]string{"/src/f.txt"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildTree(s, map[string]FileContent{"/dst/f.txt": File("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("blob-ref move: got %s, want %s", got.Short(), want.Short())
	}
}

func TestBuildTreeDeltaClashes(t *testing.T) {
	s := store.NewMemoryStore()
	base, err := BuildTree(s, map[string]FileContent{
		"/a/b.txt": File("x"),
		"/f.txt":   File("y"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// A file edit where the base holds a live directory must clash...
	if _, err := BuildTreeDelta(s, base, map[string]TreeEdit{"/a": {Data: []byte("now a file")}}, nil); err == nil {
		t.Error("file edit over a live base directory accepted")
	}
	// ...but succeeds once the directory's contents are removed.
	got, err := BuildTreeDelta(s, base,
		map[string]TreeEdit{"/a": {Data: []byte("now a file")}},
		[]string{"/a/b.txt"})
	if err != nil {
		t.Fatalf("file edit after clearing the directory: %v", err)
	}
	want, err := BuildTree(s, map[string]FileContent{
		"/a":     File("now a file"),
		"/f.txt": File("y"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("dir-to-file: got %s, want %s", got.Short(), want.Short())
	}

	// Edits beneath a live base file clash too.
	if _, err := BuildTreeDelta(s, base, map[string]TreeEdit{"/f.txt/sub": {Data: []byte("z")}}, nil); err == nil {
		t.Error("edit beneath a live base file accepted")
	}
	// Directory-mode edits are rejected outright.
	if _, err := BuildTreeDelta(s, base, map[string]TreeEdit{"/d": {Mode: object.ModeDir}}, nil); err == nil {
		t.Error("directory-mode edit accepted")
	}
}
