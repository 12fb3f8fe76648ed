package vcs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// randomDAG commits n commits with random parents on r: each joins one of
// comps disjoint components and takes 1-3 distinct parents from earlier
// commits of its component, or none (a root) when it is the component's
// first or, one time in eight, anyway. parents[i] lists commit i's parents
// by index.
func randomDAG(t testing.TB, r *Repository, rng *rand.Rand, n, comps int) (ids []object.ID, parents [][]int) {
	t.Helper()
	tree, err := BuildTree(r.Objects, map[string]FileContent{"/f": File("x")})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, comps)
	for i := 0; i < n; i++ {
		c := rng.Intn(comps)
		var ps []int
		if pool := members[c]; len(pool) > 0 && rng.Intn(8) != 0 {
			want := 1 + rng.Intn(3)
			for _, k := range rng.Perm(len(pool)) {
				if len(ps) == want {
					break
				}
				// Favour recent commits so histories grow deep, not wide.
				if k < len(pool)-4 && rng.Intn(2) == 0 {
					continue
				}
				ps = append(ps, pool[k])
			}
			if len(ps) == 0 {
				ps = append(ps, pool[len(pool)-1])
			}
		}
		pids := make([]object.ID, len(ps))
		for j, p := range ps {
			pids[j] = ids[p]
		}
		id, err := r.CommitTree(tree, pids, CommitOptions{Author: sig("p", int64(i)), Message: fmt.Sprint("c", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		parents = append(parents, ps)
		members[c] = append(members[c], i)
	}
	return ids, parents
}

// ancestorOf returns a random ancestor of commit i (possibly i itself).
func ancestorOf(rng *rand.Rand, parents [][]int, i int) int {
	for rng.Intn(4) != 0 && len(parents[i]) > 0 {
		i = parents[i][rng.Intn(len(parents[i]))]
	}
	return i
}

// candidateCount counts the common ancestors of a and b that no other
// common ancestor dominates — more than one is a criss-cross — and reports
// whether two of them tie on their distance from a.
func candidateCount(t *testing.T, r *Repository, a, b object.ID) (int, bool) {
	t.Helper()
	reachA, err := r.reachableDepths(a)
	if err != nil {
		t.Fatal(err)
	}
	reachB, err := r.reachableDepths(b)
	if err != nil {
		t.Fatal(err)
	}
	var common []object.ID
	for id := range reachA {
		if _, ok := reachB[id]; ok {
			common = append(common, id)
		}
	}
	dists := map[int]bool{}
	n, tie := 0, false
	for _, x := range common {
		dominated := false
		for _, y := range common {
			if x == y {
				continue
			}
			if ok, err := r.IsAncestor(x, y); err != nil {
				t.Fatal(err)
			} else if ok {
				dominated = true
				break
			}
		}
		if !dominated {
			n++
			tie = tie || dists[reachA[x]]
			dists[reachA[x]] = true
		}
	}
	return n, tie
}

// TestMergeBaseMatchesOracle holds MergeBase to the full-history walk it
// replaced on 240 seeded random DAGs: random pairs, a commit with itself,
// ancestor and descendant in both orders, disjoint components and the zero
// ID, asked on a handle whose memo is warm and on a fresh one.
func TestMergeBaseMatchesOracle(t *testing.T) {
	crissCross, ties, disjoint := 0, 0, 0
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewMemoryRepository()
		comps := 1 + rng.Intn(2)
		ids, parents := randomDAG(t, r, rng, 2+rng.Intn(36), comps)
		type pair struct{ a, b object.ID }
		var pairs []pair
		for k := 0; k < 24; k++ {
			pairs = append(pairs, pair{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]})
		}
		i := rng.Intn(len(ids))
		anc := ids[ancestorOf(rng, parents, i)]
		pairs = append(pairs,
			pair{ids[i], ids[i]},
			pair{anc, ids[i]}, pair{ids[i], anc},
			pair{object.ZeroID, ids[i]}, pair{ids[i], object.ZeroID}, pair{})
		for k, p := range pairs {
			want, err := r.oracleMergeBase(p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			h := r
			if k%2 == 1 {
				h = &Repository{Objects: r.Objects, Refs: r.Refs}
			}
			got, err := h.MergeBase(p.a, p.b)
			if err != nil {
				t.Fatalf("seed %d: MergeBase(%s, %s): %v", seed, p.a.Short(), p.b.Short(), err)
			}
			if got != want {
				t.Fatalf("seed %d: MergeBase(%s, %s) = %s, oracle %s", seed, p.a.Short(), p.b.Short(), got.Short(), want.Short())
			}
			if p.a.IsZero() || p.b.IsZero() {
				continue
			}
			n, tie := candidateCount(t, r, p.a, p.b)
			switch {
			case n == 0:
				disjoint++
			case n > 1:
				crissCross++
				if tie {
					ties++
				}
			}
		}
	}
	// The tie-break must have been exercised both ways, and disjoint
	// histories met, or the comparison proves little.
	if crissCross < 100 || ties < 20 || disjoint < 100 {
		t.Errorf("weak coverage: %d criss-cross pairs (%d with a distance tie), %d disjoint", crissCross, ties, disjoint)
	}
	t.Logf("%d criss-cross pairs (%d with a distance tie), %d disjoint", crissCross, ties, disjoint)
}

func TestGenerationNumbers(t *testing.T) {
	// root — x — y ; root2 — z ; m(y, z)
	r := NewMemoryRepository()
	tree, err := BuildTree(r.Objects, map[string]FileContent{"/f": File("x")})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(msg string, parents ...object.ID) object.ID {
		id, err := r.CommitTree(tree, parents, CommitOptions{Author: sig("g", 1), Message: msg})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	root := commit("root")
	x := commit("x", root)
	y := commit("y", x)
	root2 := commit("root2")
	z := commit("z", root2)
	m := commit("m", y, z)
	if len(r.gens) != 0 {
		t.Fatalf("committing computed %d generation numbers, want none", len(r.gens))
	}
	for id, want := range map[object.ID]uint32{m: 4, root: 1, x: 2, y: 3, root2: 1, z: 2} {
		if g, err := r.generation(id); err != nil || g != want {
			t.Errorf("generation(%s) = %d, %v, want %d", id.Short(), g, err, want)
		}
	}
}

// TestMergeBaseReadsSinceFork pins the commit reads of a merge base on a
// 1 000-commit history through a store with no cache: the first merge reads
// the history once to learn its generation numbers, the next one only the
// commits since the fork.
func TestMergeBaseReadsSinceFork(t *testing.T) {
	counting := &getCountingStore{Store: store.NewMemoryStore()}
	r := &Repository{Objects: counting, Refs: refs.NewMemoryStore()}
	tree, err := BuildTree(r.Objects, map[string]FileContent{"/f": File("x")})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	commit := func(branch string) object.ID {
		n++
		id, err := r.CommitTreeOnBranch(branch, tree, CommitOptions{Author: sig("c", n), Message: fmt.Sprint(n)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var tip object.ID
	for i := 0; i < 1000; i++ {
		tip = commit("main")
	}
	if err := r.CreateBranch("side", tip); err != nil {
		t.Fatal(err)
	}
	// mergeBaseReads commits twice on each side, then counts the reads of
	// the merge base of the two tips.
	mergeBaseReads := func() (object.ID, int64) {
		var a, b object.ID
		for i := 0; i < 2; i++ {
			a, b = commit("main"), commit("side")
		}
		before := counting.gets.Load()
		mb, err := r.MergeBase(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return mb, counting.gets.Load() - before
	}
	base1, first := mergeBaseReads()
	if base1 != tip {
		t.Fatalf("first merge base = %s, want the fork point %s", base1.Short(), tip.Short())
	}
	side, err := r.BranchTip("side")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MergeCommitOnBranch("main", tree, side, CommitOptions{Author: sig("m", 0), Message: "merge"}); err != nil {
		t.Fatal(err)
	}
	base2, second := mergeBaseReads()
	if base2 != side {
		t.Fatalf("second merge base = %s, want the merged side tip %s", base2.Short(), side.Short())
	}
	if first > 1010 || second > 16 {
		t.Errorf("commit reads: first merge %d (want <= 1010), second %d (want <= 16)", first, second)
	}
	t.Logf("commit reads: first merge %d, second %d", first, second)
}

type getCountingStore struct {
	store.Store
	gets atomic.Int64
}

func (c *getCountingStore) Get(id object.ID) (object.Object, error) {
	c.gets.Add(1)
	return c.Store.Get(id)
}

// TestMergeBaseConcurrentWithCommits runs merge bases on one handle while
// other goroutines commit through it and ask for merge bases of what they
// committed; run under -race it checks the generation memo's locking.
func TestMergeBaseConcurrentWithCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objects := store.NewCachedStore(store.NewMemoryStore(), objectCacheCap)
	r := &Repository{Objects: objects, Refs: refs.NewMemoryStore()}
	ids, _ := randomDAG(t, r, rng, 60, 1)
	type query struct{ a, b, want object.ID }
	var queries []query
	for k := 0; k < 64; k++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		want, err := r.oracleMergeBase(a, b)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{a, b, want})
	}
	tree, err := BuildTree(r.Objects, map[string]FileContent{"/f": File("x")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(queries); k += 4 {
				q := queries[k]
				if got, err := r.MergeBase(q.a, q.b); err != nil || got != q.want {
					errs <- fmt.Errorf("MergeBase(%s, %s) = %s, %v, want %s", q.a.Short(), q.b.Short(), got.Short(), err, q.want.Short())
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			branch := fmt.Sprint("writer", w)
			if err := r.CreateBranch(branch, ids[len(ids)-1-w]); err != nil {
				errs <- err
				return
			}
			for k := 0; k < 20; k++ {
				tip, err := r.CommitTreeOnBranch(branch, tree, CommitOptions{Author: sig("w", int64(k)), Message: fmt.Sprint(branch, k)})
				if err != nil {
					errs <- err
					return
				}
				other := ids[(k*7+w)%len(ids)]
				want, err := r.oracleMergeBase(tip, other)
				if err != nil {
					errs <- err
					return
				}
				if got, err := r.MergeBase(tip, other); err != nil || got != want {
					errs <- fmt.Errorf("MergeBase(new %s, %s) = %s, %v, want %s", tip.Short(), other.Short(), got.Short(), err, want.Short())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
