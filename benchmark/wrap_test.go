package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// countingStore stands in for the pack store at the bottom of a stack: it
// has every optional store interface (through the embedded memory store) and
// counts what reaches it.
type countingStore struct {
	*store.MemoryStore
	objects    atomic.Int64 // objects stored, by any path
	rawBatches atomic.Int64 // PutManyEncoded calls
	putManys   atomic.Int64
}

func (s *countingStore) Put(o object.Object) (object.ID, error) {
	s.objects.Add(1)
	return s.MemoryStore.Put(o)
}

func (s *countingStore) PutMany(objs []object.Object) ([]object.ID, error) {
	s.putManys.Add(1)
	s.objects.Add(int64(len(objs)))
	return s.MemoryStore.PutMany(objs)
}

func (s *countingStore) PutManyEncoded(batch []store.Encoded) error {
	s.rawBatches.Add(1)
	s.objects.Add(int64(len(batch)))
	return s.MemoryStore.PutManyEncoded(batch)
}

// oneFileCommitCost commits one edited file on the 1 000-file, depth-3 tree
// behind the CI counter store_puts_per_one_file_commit and reports what
// reached the bottom store.
func oneFileCommitCost(t *testing.T, wrapped bool) (objects, rawBatches, putManys int64) {
	t.Helper()
	bottom := &countingStore{MemoryStore: store.NewMemoryStore()}
	repo := &vcs.Repository{Objects: store.NewCachedStore(bottom, objectCacheCap), Refs: refs.NewMemoryStore()}
	if wrapped {
		tr := newTracer()
		tr.on.Store(true)
		below := newTimedStore(bottom, tr, "store.pack")
		repo.Objects = newTimedStore(store.NewCachedStore(below, objectCacheCap), tr, "store.cached")
		repo.Refs = &timedRefs{inner: refs.NewMemoryStore(), tr: tr}
	}
	files := make(map[string]vcs.FileContent, 1000)
	for i := 0; i < 1000; i++ {
		files[fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)] = vcs.File(fmt.Sprintf("seed %d", i))
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "bench@x", time.Unix(1, 0)), Message: "bench"}
	tip, err := repo.CommitFiles("main", files, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := repo.TreeOf(tip)
	if err != nil {
		t.Fatal(err)
	}
	bottom.objects.Store(0)
	bottom.rawBatches.Store(0)
	bottom.putManys.Store(0)
	edits := map[string]vcs.TreeEdit{"/d3/s4/f430.txt": {Data: []byte("edited")}}
	if _, err := repo.CommitDelta("main", base, edits, nil, opts); err != nil {
		t.Fatal(err)
	}
	return bottom.objects.Load(), bottom.rawBatches.Load(), bottom.putManys.Load()
}

func TestWrappedStackCostsWhatTheBareStackCosts(t *testing.T) {
	bareObjects, bareRaw, barePutMany := oneFileCommitCost(t, false)
	objects, raw, putMany := oneFileCommitCost(t, true)
	if objects != bareObjects || raw != bareRaw || putMany != barePutMany {
		t.Errorf("wrapped commit: %d objects, %d raw batches, %d PutMany calls; bare: %d, %d, %d",
			objects, raw, putMany, bareObjects, bareRaw, barePutMany)
	}
	// One blob, three trees (s4, d3, root) and the commit; the blob and trees
	// arrive as a single raw batch.
	if bareObjects != 5 || bareRaw != 1 {
		t.Errorf("bare one-file commit stored %d objects in %d raw batches, want 5 in 1", bareObjects, bareRaw)
	}
}

func TestTimedStoreKeepsEveryOptionalInterface(t *testing.T) {
	var s store.Store = newTimedStore(store.NewMemoryStore(), nil, "store.pack")
	if _, ok := s.(store.BatchStore); !ok {
		t.Error("timedStore hides BatchStore")
	}
	if _, ok := s.(store.RawBatchStore); !ok {
		t.Error("timedStore hides RawBatchStore")
	}
	if _, ok := s.(store.PrefixSearcher); !ok {
		t.Error("timedStore hides PrefixSearcher")
	}
	if _, ok := s.(interface{ Close() error }); !ok {
		t.Error("timedStore hides Close")
	}
	// The cache above a timed store must still reach the raw batch path, the
	// prefix index and Close through it.
	cache := store.NewCachedStore(s, 16)
	blob := object.NewBlob([]byte("x"))
	enc := object.Encode(blob)
	id := object.HashBytes(enc)
	if err := store.PutManyEncoded(cache, []store.Encoded{{ID: id, Enc: enc}}); err != nil {
		t.Fatal(err)
	}
	if ids, err := store.IDsByPrefix(cache, id.String()[:8], 0); err != nil || len(ids) != 1 || ids[0] != id {
		t.Errorf("prefix lookup through the wrapper: %v %v", ids, err)
	}
	if err := cache.Close(); err != nil {
		t.Errorf("Close through the wrapper: %v", err)
	}
}

// The traced stack must build the repository vcs.OpenPackedFileRepository
// builds: same objects on disk, same number of packs, same answers.
func TestTracedStackMatchesOpenPackedRepository(t *testing.T) {
	meta := gitcite.Meta{Owner: "bench", Name: "r", URL: "https://git.example/bench/r"}
	build := func(repo *gitcite.Repository) gitcite.CommitID {
		t.Helper()
		fx := genFixture(rngFor(1, "wrap-test"), meta, 40, 3, 4, 0)
		clk := &clock{}
		wt, _, err := fx.populate(repo, rngFor(1, "wrap-test/content"), clk)
		if err != nil {
			t.Fatal(err)
		}
		id, err := fx.evolve(wt, rngFor(1, "wrap-test/evolve"), clk, 1)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	bareDir, tracedDir := t.TempDir(), t.TempDir()
	bare, err := gitcite.OpenPackedRepository(bareDir, meta)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	st, err := openTracedStack(tracedDir, tr)
	if err != nil {
		t.Fatal(err)
	}
	traced := st.repository(meta)
	bareTip, tracedTip := build(bare), build(traced)
	if bareTip != tracedTip {
		t.Errorf("traced stack committed %s, bare stack %s", tracedTip.Short(), bareTip.Short())
	}
	bareLen, _ := bare.VCS.Objects.Len()
	tracedLen, _ := traced.VCS.Objects.Len()
	if bareLen != tracedLen || bareLen == 0 {
		t.Errorf("traced stack holds %d objects, bare stack %d", tracedLen, bareLen)
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	if err := traced.Close(); err != nil {
		t.Fatal(err)
	}
	barePacks, _, _ := packCensus(bareDir)
	tracedPacks, _, _ := packCensus(tracedDir)
	if barePacks != tracedPacks || barePacks != 1 {
		t.Errorf("traced stack left %d packs, bare stack %d, want 1 each", tracedPacks, barePacks)
	}
	if got := st.below.rawBatches.Load(); got == 0 {
		t.Error("no raw batch reached the pack store through the traced stack")
	}
	link(tr.spans)
	agg := aggregate(tr.spans)
	if agg("store.pack.put").n == 0 || agg("store.cached.put").n == 0 || agg("refs.set").n == 0 {
		t.Errorf("spans: pack.put %d cached.put %d refs.set %d", agg("store.pack.put").n, agg("store.cached.put").n, agg("refs.set").n)
	}
}

func TestRouteKind(t *testing.T) {
	cases := []struct{ method, path, want string }{
		{http.MethodGet, "/api/v1/repos/o/n", "meta"},
		{http.MethodGet, "/api/v1/repos/o/n/cite/main", "cite"},
		{http.MethodGet, "/api/v1/repos/o/n/chain/main", "cite"},
		{http.MethodGet, "/api/v1/repos/o/n/citefile/main", "cite"},
		{http.MethodPost, "/api/v1/repos/o/n/cite", "edit"},
		{http.MethodDelete, "/api/v1/repos/o/n/cite", "edit"},
		{http.MethodGet, "/api/v1/repos/o/n/tree/abc", "tree"},
		{http.MethodPost, "/api/v1/repos/o/n/negotiate", "negotiate"},
		{http.MethodPost, "/api/v1/repos/o/n/push", "push"},
		{http.MethodPost, "/api/v1/repos/o/n/objects", "pull"},
		{http.MethodGet, "/api/v1/repos/o/n/pull/abc", "pull"},
		{http.MethodPost, "/api/v1/users", "other"},
		{http.MethodPost, "/api/v1/repos", "other"},
	}
	for _, c := range cases {
		if got := routeKind(c.method, c.path); got != c.want {
			t.Errorf("routeKind(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
