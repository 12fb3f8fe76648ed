package gitcite

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// cachedFunction returns what the repository's function cache holds for a
// commit's version, without loading anything on a miss.
func cachedFunction(t *testing.T, r *Repo, id object.ID) *core.Function {
	t.Helper()
	tree, err := r.VCS.TreeOf(id)
	if err != nil {
		t.Fatal(err)
	}
	c := r.functionCache()
	c.mu.RLock()
	defer c.mu.RUnlock()
	if fn, ok := c.cur[tree]; ok {
		return fn
	}
	return c.old[tree]
}

// dropCachedFunctions empties a repository's function cache: two
// generations on, nothing anyone held is left.
func dropCachedFunctions(r *Repo) {
	r.functionCache().Rotate()
	r.functionCache().Rotate()
}

// TestFunctionCacheLRU pins the function cache's generational recency: a
// full generation is kept whole; past it, a version read during the
// previous generation survives the next rotation and the versions nobody
// read leave — least-recently-used eviction at generation granularity,
// which keeps hits under the shared lock and eviction O(1).
func TestFunctionCacheLRU(t *testing.T) {
	c := new(FunctionCache)
	fn := core.MustNewFunction(cite("root"))
	tree := func(i int) object.ID { return object.HashBytes([]byte(fmt.Sprint("tree ", i))) }
	cached := func(i int) bool {
		c.mu.RLock()
		defer c.mu.RUnlock()
		_, cur := c.cur[tree(i)]
		_, old := c.old[tree(i)]
		return cur || old
	}
	lens := func() (int, int) {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return len(c.cur), len(c.old)
	}

	for i := 0; i < functionGeneration; i++ {
		c.seed(tree(i), fn)
	}
	if cur, old := lens(); cur != functionGeneration || old != 0 {
		t.Fatalf("one full generation: %d current + %d old entries", cur, old)
	}
	// The next insert starts a new generation; nothing is lost yet.
	c.seed(tree(functionGeneration), fn)
	if !cached(0) || !cached(1) {
		t.Fatal("the first rotation dropped a version")
	}
	// Read version 0 in this generation, then fill it and rotate again.
	if c.get(tree(0)) != fn {
		t.Fatal("version 0 not served")
	}
	next := functionGeneration + 1
	for ; ; next++ {
		if cur, _ := lens(); cur == functionGeneration {
			break
		}
		c.seed(tree(next), fn)
	}
	c.seed(tree(next), fn)
	if !cached(0) {
		t.Error("a version read in the last generation was evicted")
	}
	if cached(1) {
		t.Error("a version nobody read for a whole generation survived")
	}
	if !cached(functionGeneration) {
		t.Error("a version inserted in the last generation was evicted")
	}
	if cur, old := lens(); cur+old > 2*functionGeneration {
		t.Errorf("cache holds %d versions, bound %d", cur+old, 2*functionGeneration)
	}

	// Concurrent loaders share the first one's instance, also when it sits
	// in the old generation.
	first, second := core.MustNewFunction(cite("a")), core.MustNewFunction(cite("b"))
	if got := c.add(tree(1), first); got != first {
		t.Fatal("a reloaded victim was not cached")
	}
	if got := c.add(tree(1), second); got != first {
		t.Error("a second loader did not get the first one's instance")
	}
	c.Rotate()
	if got := c.add(tree(1), second); got != first {
		t.Error("a loader did not get the old generation's instance")
	}
	if got := c.get(tree(1)); got != first {
		t.Error("the old generation's instance was not moved forward")
	}
}

// TestReloadedVersionsShareRecords: versions decoded after the cache
// dropped them read exactly as before and hold one record per distinct
// entry — the record table swaps each decode's fresh records for the
// identical ones an earlier decode already holds.
func TestReloadedVersionsShareRecords(t *testing.T) {
	r := newRepo(t)
	wt, _ := r.Checkout("main")
	for i := 0; i < 20; i++ {
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
	if err := wt.ModifyCite("/pkg3/f.txt", cite("edited")); err != nil {
		t.Fatal(err)
	}
	v2, err := wt.Commit(opts("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[object.ID][]core.PathCitation{}
	for _, id := range []object.ID{v1, v2} {
		seeded[id] = cachedFunction(t, r, id).ActiveDomain()
	}

	dropCachedFunctions(r)
	if cachedFunction(t, r, v1) != nil || cachedFunction(t, r, v2) != nil {
		t.Fatal("two rotations left a version cached")
	}
	records := map[object.ID]map[string]*core.Record{}
	for _, id := range []object.ID{v1, v2} {
		fn, err := r.ResolvedFunctionAt(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fn.ActiveDomain(), seeded[id]) {
			t.Fatalf("%s reads differently after a reload", id.Short())
		}
		if again, _ := r.ResolvedFunctionAt(id); again != fn {
			t.Fatalf("%s: the reloaded function was not cached", id.Short())
		}
		records[id] = map[string]*core.Record{}
		for _, pr := range fn.Records() {
			records[id][pr.Path] = pr.Record
		}
	}
	var fresh []string
	for p, rec := range records[v2] {
		if records[v1][p] != rec {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) != 2 {
		t.Errorf("records of v2 not shared with v1: %v, want the root and /pkg3/f.txt", fresh)
	}
}

// TestForkSharesFunctionCache: a fork holds its source's versions, so it
// reads them through the source's cache — one decoded instance for both.
func TestForkSharesFunctionCache(t *testing.T) {
	src := newRepo(t)
	wt, _ := src.Checkout("main")
	if err := wt.WriteFile("/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := wt.AddCite("/f.txt", cite("alice")); err != nil {
		t.Fatal(err)
	}
	tip, err := wt.Commit(opts("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Fork(src, Meta{Owner: "bob", Name: "fork", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := src.ResolvedFunctionAt(tip)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fork.ResolvedFunctionAt(tip)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("the fork decoded its own copy of a version its source had cached")
	}
}

// TestSharedCacheReadersRaceCommits: readers generate citations across
// repositories (a fork among them) that share one cache, while worktrees
// commit into the same repositories and the cache rotates generations under
// them. Every answer is the cold decode's. Run with -race.
func TestSharedCacheReadersRaceCommits(t *testing.T) {
	shared := new(FunctionCache)
	type version struct {
		repo   *Repo
		commit object.ID
		fn     *core.Function // cold decode of the stored file
	}
	var repos []*Repo
	var versions []version
	var paths []string
	for i := 0; i < 8; i++ {
		paths = append(paths, fmt.Sprintf("/d%d/f%d.txt", i%3, i))
	}
	for n := 0; n < 3; n++ {
		r := newRepo(t)
		r.ShareFunctionCache(shared)
		repos = append(repos, r)
		wt, _ := r.Checkout("main")
		for i, p := range paths {
			if err := wt.WriteFile(p, []byte(p)); err != nil {
				t.Fatal(err)
			}
			if (i+n)%2 == 0 {
				if err := wt.AddCite(p, cite(fmt.Sprint("r", n, "p", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := 0; v < 4; v++ {
			if err := wt.Function().Set(wt.Tree(), vcs.ParentPath(paths[v]), cite(fmt.Sprint("r", n, "v", v))); err != nil {
				t.Fatal(err)
			}
			id, err := wt.Commit(opts("a", int64(1+v)))
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, version{repo: r, commit: id})
		}
	}
	fork, err := Fork(repos[0], Meta{Owner: "bob", Name: "fork", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	repos = append(repos, fork)
	for _, v := range versions[:4] {
		versions = append(versions, version{repo: fork, commit: v.commit})
	}
	for i := range versions {
		data, err := versions[i].repo.CiteFileBytes(versions[i].commit)
		if err != nil {
			t.Fatal(err)
		}
		if versions[i].fn, err = citefile.Decode(data); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := versions[i%len(versions)]
				p := paths[(i/len(versions)+g)%len(paths)]
				got, from, err := v.repo.Generate(v.commit, p)
				if err != nil {
					t.Error(err)
					return
				}
				want, wantFrom, _ := v.fn.Resolve(p)
				if from != wantFrom || (from != "/" && !got.Equal(want)) {
					t.Errorf("%s %s: got %v from %s, want %v from %s", v.commit.Short(), p, got, from, want, wantFrom)
					return
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			shared.Rotate()
			runtime.Gosched()
		}
	}()
	for w, r := range repos {
		branch := fmt.Sprint("w", w)
		tip, err := r.VCS.BranchTip("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VCS.CreateBranch(branch, tip); err != nil {
			t.Fatal(err)
		}
		writers.Add(1)
		go func(r *Repo, w int) {
			defer writers.Done()
			wt, err := r.Checkout(branch)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				p := paths[(i+w)%len(paths)]
				if err := wt.Function().Set(wt.Tree(), p, cite(fmt.Sprint("w", w, "-", i))); err != nil {
					t.Error(err)
					return
				}
				if _, err := wt.Commit(opts(branch, int64(100+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(r, w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
