// Benchmarks regenerating the paper's artefacts and characterising every
// operation of the system. The paper (a demonstration paper) reports no
// quantitative numbers, so the figure/listing benches check correctness
// shape while measuring replay cost, and the E1–E7 benches are the
// performance characterisation DESIGN.md §4 commits to.
package gitcite_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	gitcite "github.com/gitcite/gitcite"
	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/scenario"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
	"github.com/gitcite/gitcite/internal/workload"
)

// ---- paper artefacts ----

// BenchmarkFigure1Replay regenerates the Figure 1 running example (five
// versions, AddCite + CopyCite + MergeCite) and verifies the paper's
// claimed citation values each iteration.
func BenchmarkFigure1Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := scenario.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListing1Replay reconstructs the §4 CiteDB demonstration and
// verifies the final citation.cite matches Listing 1.
func BenchmarkListing1Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := scenario.Listing1()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E1: citation resolution vs. path depth ----

func BenchmarkResolveClosestAncestor(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			leaf := workload.DeepPath(depth)
			tree := core.MustPathSet(leaf)
			cfg := workload.Default()
			fn := core.MustNewFunction(cfg.RootCitation())
			// Only the root is cited: every resolution walks the full
			// depth, one map lookup per level, and allocates nothing.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fn.Resolve(leaf); err != nil {
					b.Fatal(err)
				}
			}
			_ = tree
		})
	}
}

// BenchmarkResolveColdIndex is a write followed by a resolution: the first
// read of a path after a mutation, which walks every ancestor like any
// other read.
func BenchmarkResolveColdIndex(b *testing.B) {
	for _, depth := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			leaf := workload.DeepPath(depth)
			tree := core.MustPathSet(leaf, "/churn.go")
			cfg := workload.Default()
			fn := core.MustNewFunction(cfg.RootCitation())
			cite := cfg.Citation(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fn.Set(tree, "/churn.go", cite); err != nil {
					b.Fatal(err)
				}
				if _, _, err := fn.Resolve(leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveClosestAncestorParallel measures resolution under reader
// concurrency: every goroutine hammers the same function under read locks
// only.
func BenchmarkResolveClosestAncestorParallel(b *testing.B) {
	for _, depth := range []int{16, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			leaf := workload.DeepPath(depth)
			cfg := workload.Default()
			fn := core.MustNewFunction(cfg.RootCitation())
			if _, _, err := fn.Resolve(leaf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := fn.Resolve(leaf); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkResolveChain is the ablation against the paper's alternative
// whole-path semantics ("every citation on the path from n to r").
func BenchmarkResolveChain(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			leaf := workload.DeepPath(depth)
			cfg := workload.Default()
			fn := core.MustNewFunction(cfg.RootCitation())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fn.ResolveChain(leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResolveChainParallel is the chain ablation under concurrency.
func BenchmarkResolveChainParallel(b *testing.B) {
	leaf := workload.DeepPath(64)
	cfg := workload.Default()
	fn := core.MustNewFunction(cfg.RootCitation())
	if _, err := fn.ResolveChain(leaf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := fn.ResolveChain(leaf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E2: citation CRUD vs. function size ----

func BenchmarkAddCite(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fn, tree := workload.FunctionWithEntries(n)
			cfg := workload.Default()
			cite := cfg.Citation(n + 1)
			mods := n / 100
			if mods == 0 {
				mods = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := fmt.Sprintf("/mod%03d", i%mods)
				if fn.Has(target) {
					b.StopTimer()
					if err := fn.Delete(target); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := fn.Add(tree, target, cite); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := fn.Delete(target); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

func BenchmarkModifyCite(b *testing.B) {
	fn, _ := workload.FunctionWithEntries(1000)
	cfg := workload.Default()
	a, c := cfg.Citation(1), cfg.Citation(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cite := a
		if i%2 == 1 {
			cite = c
		}
		if err := fn.Modify("/mod000/pkg000/file.go", cite); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: MergeCite vs. size and conflict fraction ----

func BenchmarkMergeCite(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, frac := range []float64{0, 0.01, 0.1} {
			b.Run(fmt.Sprintf("entries=%d/conflicts=%.0f%%", n, frac*100), func(b *testing.B) {
				base, tree := workload.FunctionWithEntries(n)
				ours, theirs := workload.SplitForMerge(base, tree, frac, 11)
				opts := core.MergeOptions{Strategy: core.StrategyOurs}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Merge(ours, theirs, tree, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMergeCiteThreeWay is the strategy ablation: union-with-ours vs
// the future-work three-way method.
func BenchmarkMergeCiteThreeWay(b *testing.B) {
	base, tree := workload.FunctionWithEntries(1000)
	ours, theirs := workload.SplitForMerge(base, tree, 0.1, 11)
	opts := core.MergeOptions{
		Strategy: core.StrategyThreeWay,
		Base:     base,
		Resolver: func(c core.MergeConflict) (core.Citation, error) { return c.Ours, nil },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(ours, theirs, tree, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: CopyCite vs. subtree size ----

func BenchmarkCopyCiteMigration(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			src, _ := workload.FunctionWithEntries(n)
			// Destination tree holds the rebased paths.
			dstPaths := make([]string, 0, n)
			for _, p := range src.Paths() {
				if p == "/" {
					continue
				}
				dstPaths = append(dstPaths, "/import"+p)
			}
			if len(dstPaths) == 0 {
				dstPaths = []string{"/import/placeholder.go"}
			}
			dstTree := core.MustPathSet(dstPaths...)
			cfg := workload.Default()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst := core.MustNewFunction(cfg.RootCitation())
				if _, err := dst.MigrateSubtree(src, "/", "/import", dstTree, core.CopyOptions{Overwrite: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: commit overhead (citation-enabled vs plain VCS) ----

func BenchmarkCommitPlainVCS(b *testing.B) {
	for _, files := range []int{100, 1000} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			cfg := workload.Default()
			cfg.FilesPerDir = files / 13 // dirs(3,3)=13
			fc := cfg.Files()
			repo := vcs.NewMemoryRepository()
			opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "bench"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repo.CommitFiles("main", fc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCommitCitationEnabled(b *testing.B) {
	for _, files := range []int{100, 1000} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			cfg := workload.Default()
			cfg.FilesPerDir = files / 13
			fc := cfg.Files()
			repo, err := gitcite.NewRepository(gitcite.Meta{Owner: "bench", Name: "b", URL: "u"})
			if err != nil {
				b.Fatal(err)
			}
			wt, err := repo.Checkout("main")
			if err != nil {
				b.Fatal(err)
			}
			for p, f := range fc {
				if err := wt.WriteFile(p, f.Data); err != nil {
					b.Fatal(err)
				}
			}
			opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "bench"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wt.Commit(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: incremental write path ----

// benchTreeFiles builds a nested map of n files (10 top dirs × 10 subdirs).
func benchTreeFiles(n int) map[string]vcs.FileContent {
	fc := make(map[string]vcs.FileContent, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)
		fc[p] = vcs.File(fmt.Sprintf("seed content %d", i))
	}
	return fc
}

// BenchmarkCommitOneFileIn1k measures the cost of committing one changed
// file into a 1000-file repository. "cold" is the pre-incremental write
// path — a from-scratch BuildTree of the whole map every commit;
// "incremental" diffs against the parent's tree and re-hashes only the
// changed path. "worktree" is the full citation-enabled commit (lazy
// worktree + citation.cite regeneration) on the incremental path.
func BenchmarkCommitOneFileIn1k(b *testing.B) {
	const n = 1000
	b.Run("cold", func(b *testing.B) {
		fc := benchTreeFiles(n)
		repo := vcs.NewMemoryRepository()
		opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "bench"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fc["/d3/s4/f435.txt"] = vcs.File(fmt.Sprintf("edit %d", i))
			if _, err := repo.CommitFiles("main", fc, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		fc := benchTreeFiles(n)
		repo := vcs.NewMemoryRepository()
		opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "bench"}
		tip, err := repo.CommitFiles("main", fc, opts)
		if err != nil {
			b.Fatal(err)
		}
		base, err := repo.TreeOf(tip)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edits := map[string]vcs.TreeEdit{
				"/d3/s4/f435.txt": {Data: []byte(fmt.Sprintf("edit %d", i))},
			}
			tip, err = repo.CommitDelta("main", base, edits, nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			if base, err = repo.TreeOf(tip); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("worktree", func(b *testing.B) {
		repo, err := gitcite.NewRepository(gitcite.Meta{Owner: "bench", Name: "b", URL: "u"})
		if err != nil {
			b.Fatal(err)
		}
		wt, err := repo.Checkout("main")
		if err != nil {
			b.Fatal(err)
		}
		for p, f := range benchTreeFiles(n) {
			if err := wt.WriteFile(p, f.Data); err != nil {
				b.Fatal(err)
			}
		}
		opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "bench"}
		if _, err := wt.Commit(opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := wt.WriteFile("/d3/s4/f435.txt", []byte(fmt.Sprintf("edit %d", i))); err != nil {
				b.Fatal(err)
			}
			if _, err := wt.Commit(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// copyClosurePerObject is the pre-batch closure copy: one lock-acquiring
// Has and one Put round trip per object. Kept as the BenchmarkPushClosure
// baseline.
func copyClosurePerObject(dst, src store.Store, roots ...object.ID) (int, error) {
	copied := 0
	seen := make(map[object.ID]bool)
	stack := append([]object.ID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id.IsZero() || seen[id] {
			continue
		}
		seen[id] = true
		if ok, err := dst.Has(id); err != nil {
			return copied, err
		} else if ok {
			continue
		}
		o, err := src.Get(id)
		if err != nil {
			return copied, err
		}
		if _, err := dst.Put(o); err != nil {
			return copied, err
		}
		copied++
		switch v := o.(type) {
		case *object.Commit:
			stack = append(stack, v.TreeID)
			stack = append(stack, v.Parents...)
		case *object.Tree:
			for _, e := range v.Entries() {
				stack = append(stack, e.ID)
			}
		}
	}
	return copied, nil
}

// BenchmarkPushClosure measures transferring a 1000-file commit closure
// into an empty store: the batched frontier walk (HasMany/PutMany) against
// the per-object baseline.
func BenchmarkPushClosure(b *testing.B) {
	src := store.NewMemoryStore()
	tree, err := vcs.BuildTree(src, benchTreeFiles(1000))
	if err != nil {
		b.Fatal(err)
	}
	commit := &object.Commit{
		TreeID:    tree,
		Author:    vcs.Sig("bench", "b@x", time.Unix(1, 0)),
		Committer: vcs.Sig("bench", "b@x", time.Unix(1, 0)),
		Message:   "bench",
	}
	root, err := src.Put(commit)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("memory/batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst := store.NewMemoryStore()
			b.StartTimer()
			if _, err := store.CopyClosure(dst, src, root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memory/per-object", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst := store.NewMemoryStore()
			b.StartTimer()
			if _, err := copyClosurePerObject(dst, src, root); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The file-backed variants are where batching matters: per-fanout-dir
	// locking, a single directory scan instead of per-object stats, and
	// pooled compressors.
	b.Run("file/batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst, err := store.NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := store.CopyClosure(dst, src, root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("file/per-object", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst, err := store.NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := copyClosurePerObject(dst, src, root); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: negotiated sync + immutable-read caching (API v1) ----

// newSyncBench hosts a 1000-file repository and returns the owner client,
// the pushing local repo + worktree, a second cloned repo for fetching, and
// the server URL for raw conditional GETs.
func newSyncBench(b *testing.B) (owner *extension.Client, local *gitcite.Repository, wt *gitcite.Worktree, clone *gitcite.Repository, baseURL string, closeFn func()) {
	b.Helper()
	platform := hosting.NewPlatform()
	ts := httptest.NewServer(hosting.NewServer(platform))
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("bench")
	if err != nil {
		b.Fatal(err)
	}
	owner = anon.WithToken(tok)
	if err := owner.CreateRepo("repo", "https://x/repo", ""); err != nil {
		b.Fatal(err)
	}
	local, err = gitcite.NewRepository(gitcite.Meta{Owner: "bench", Name: "repo", URL: "https://x/repo"})
	if err != nil {
		b.Fatal(err)
	}
	wt, err = local.Checkout("main")
	if err != nil {
		b.Fatal(err)
	}
	for p, f := range benchTreeFiles(1000) {
		if err := wt.WriteFile(p, f.Data); err != nil {
			b.Fatal(err)
		}
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "seed"}
	if _, err := wt.Commit(opts); err != nil {
		b.Fatal(err)
	}
	if _, err := owner.Sync(local, "bench", "repo", "main"); err != nil {
		b.Fatal(err)
	}
	clone, err = owner.Clone("bench", "repo", "main")
	if err != nil {
		b.Fatal(err)
	}
	return owner, local, wt, clone, ts.URL, ts.Close
}

// syncDeltaBound is the acceptance-criterion wire bound for a one-file
// commit in the 1000-file bench tree: 3 tree levels + file blob + commit,
// plus the regenerated citation.cite blob.
const syncDeltaBound = 3 + 2 + 1

// BenchmarkSyncFetchOneCommit measures the incremental pull of exactly one
// new commit on a 1000-file repository: negotiate + streamed delta. Every
// iteration asserts the wire carries at most syncDeltaBound objects —
// O(delta), against the ~2100-object full closure the legacy pull moves.
func BenchmarkSyncFetchOneCommit(b *testing.B) {
	owner, local, wt, clone, _, closeFn := newSyncBench(b)
	defer closeFn()
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(2, 0)), Message: "edit"}
	wire := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := wt.WriteFile("/d3/s4/f435.txt", []byte(fmt.Sprintf("edit %d", i))); err != nil {
			b.Fatal(err)
		}
		if _, err := wt.Commit(opts); err != nil {
			b.Fatal(err)
		}
		if _, err := owner.Sync(local, "bench", "repo", "main"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, n, err := owner.Fetch(clone, "bench", "repo", "main", "main")
		if err != nil {
			b.Fatal(err)
		}
		if n > syncDeltaBound {
			b.Fatalf("fetch moved %d wire objects for one commit, want ≤ %d", n, syncDeltaBound)
		}
		wire += n
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wireobjs/op")
}

// BenchmarkSyncPushOneCommit measures the incremental push direction under
// the same bound.
func BenchmarkSyncPushOneCommit(b *testing.B) {
	owner, local, wt, _, _, closeFn := newSyncBench(b)
	defer closeFn()
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(2, 0)), Message: "edit"}
	wire := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := wt.WriteFile("/d3/s4/f435.txt", []byte(fmt.Sprintf("edit %d", i))); err != nil {
			b.Fatal(err)
		}
		if _, err := wt.Commit(opts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := owner.Sync(local, "bench", "repo", "main")
		if err != nil {
			b.Fatal(err)
		}
		if n > syncDeltaBound {
			b.Fatalf("push moved %d wire objects for one commit, want ≤ %d", n, syncDeltaBound)
		}
		wire += n
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wireobjs/op")
}

// BenchmarkPullFullClosureLegacy is the pre-v1 baseline the sync benches
// are judged against: the deprecated pull endpoint re-downloads the whole
// closure as one in-memory JSON array every time.
func BenchmarkPullFullClosureLegacy(b *testing.B) {
	_, _, _, _, baseURL, closeFn := newSyncBench(b)
	defer closeFn()
	url := baseURL + "/api/repos/bench/repo/pull/main"
	wire := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		var pull hosting.PullResponse
		err = json.NewDecoder(resp.Body).Decode(&pull)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		wire += len(pull.Objects)
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wireobjs/op")
}

// BenchmarkConditionalGenCite measures the immutable-read cache: a
// commit-addressed citation read served fully (200) versus revalidated by
// ETag (304, zero citation-resolution work server-side).
func BenchmarkConditionalGenCite(b *testing.B) {
	_, local, _, _, baseURL, closeFn := newSyncBench(b)
	defer closeFn()
	tip, err := local.VCS.BranchTip("main")
	if err != nil {
		b.Fatal(err)
	}
	url := fmt.Sprintf("%s/api/v1/repos/bench/repo/cite/%s?path=/d3/s4/f435.txt", baseURL, tip.String())
	etag := `"` + tip.String() + `"`
	b.Run("200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.Run("304", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest("GET", url, nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("If-None-Match", etag)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				b.Fatalf("status %d, want 304", resp.StatusCode)
			}
		}
	})
}

// ---- E6: hosting round trips over loopback HTTP ----

func newBenchServer(b *testing.B) (*extension.Client, func()) {
	b.Helper()
	platform := hosting.NewPlatform()
	server := hosting.NewServer(platform)
	ts := httptest.NewServer(server)
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("bench")
	if err != nil {
		b.Fatal(err)
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("repo", "https://x/repo", ""); err != nil {
		b.Fatal(err)
	}
	local, err := gitcite.NewRepository(gitcite.Meta{Owner: "bench", Name: "repo", URL: "https://x/repo"})
	if err != nil {
		b.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Default()
	for p, f := range cfg.Files() {
		if err := wt.WriteFile(p, f.Data); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "seed"}); err != nil {
		b.Fatal(err)
	}
	if _, err := owner.Push(local, "bench", "repo", "main"); err != nil {
		b.Fatal(err)
	}
	return owner, ts.Close
}

func BenchmarkHostingGenCite(b *testing.B) {
	client, closeFn := newBenchServer(b)
	defer closeFn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.GenCite("bench", "repo", "main", "/dir00/file00.go"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostingGenCiteParallel replays the paper's hot public endpoint —
// anonymous citation generation — with many concurrent clients against one
// server, the many-readers regime the hosting platform is built for.
func BenchmarkHostingGenCiteParallel(b *testing.B) {
	client, closeFn := newBenchServer(b)
	defer closeFn()
	// Warm the per-commit function cache.
	if _, _, err := client.GenCite("bench", "repo", "main", "/dir00/file00.go"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := client.GenCite("bench", "repo", "main", "/dir00/file00.go"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHostingAddDelCite(b *testing.B) {
	client, closeFn := newBenchServer(b)
	defer closeFn()
	cite := core.Citation{Owner: "o", RepoName: "r", URL: "u", Version: "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.AddCite("bench", "repo", "main", "/dir00", cite); err != nil {
			b.Fatal(err)
		}
		if _, err := client.DelCite("bench", "repo", "main", "/dir00"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: citation.cite codec ----

func BenchmarkCiteFileEncode(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fn, tree := workload.FunctionWithEntries(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := citefile.Encode(fn, tree.IsDir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCiteFileDecode(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fn, tree := workload.FunctionWithEntries(n)
			data, err := citefile.Encode(fn, tree.IsDir)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := citefile.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCiteFileDecodeShared is BenchmarkCiteFileDecode through a record
// table that already holds every entry of the file — a function-cache miss
// on a version whose entries earlier versions decoded. The difference from
// the plain decode is what sharing records costs a miss.
func BenchmarkCiteFileDecodeShared(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			fn, tree := workload.FunctionWithEntries(n)
			data, err := citefile.Encode(fn, tree.IsDir)
			if err != nil {
				b.Fatal(err)
			}
			var table core.RecordTable
			if _, err := citefile.DecodeShared(data, &table); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := citefile.DecodeShared(data, &table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- ForkCite ----

func BenchmarkForkCite(b *testing.B) {
	repo, err := gitcite.NewRepository(gitcite.Meta{Owner: "bench", Name: "src", URL: "u"})
	if err != nil {
		b.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Default()
	for p, f := range cfg.Files() {
		if err := wt.WriteFile(p, f.Data); err != nil {
			b.Fatal(err)
		}
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "b@x", time.Unix(1, 0)), Message: "seed"}
	for i := 0; i < 10; i++ { // ten versions of history
		if err := wt.WriteFile("/churn.txt", []byte(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
		if _, err := wt.Commit(opts); err != nil {
			b.Fatal(err)
		}
	}
	newMeta := gitcite.Meta{Owner: "forker", Name: "fork", URL: "u2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gitcite.Fork(repo, newMeta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdCloneNegotiate contrasts the two negotiate shapes on a cold
// clone of the 1000-file repository: the plain mode's response carries one
// hex ID per missing object (~65 B × ~2100 objects), the want-all mode's
// carries just {tip, all, count} — the negotiate body no longer scales
// with repository size. Both byte sizes are reported as metrics; the
// want-all bound is asserted every iteration.
func BenchmarkColdCloneNegotiate(b *testing.B) {
	_, _, _, _, baseURL, closeFn := newSyncBench(b)
	defer closeFn()
	negotiate := func(mode string) int {
		body, err := json.Marshal(hosting.NegotiateRequest{Want: "main", Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(baseURL+"/api/v1/repos/bench/repo/negotiate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("negotiate: status %d, err %v", resp.StatusCode, err)
		}
		return len(data)
	}
	var plainBytes, allBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plainBytes = negotiate("")
		allBytes = negotiate(hosting.NegotiateModeWantAll)
		if allBytes > 256 {
			b.Fatalf("want-all negotiate body = %d bytes, want <= 256", allBytes)
		}
	}
	b.ReportMetric(float64(plainBytes), "plainB/op")
	b.ReportMetric(float64(allBytes), "wantallB/op")
}

// BenchmarkColdCloneFetch measures a full cold clone (negotiate + object
// transfer into a fresh in-memory repository) through the want-all path.
func BenchmarkColdCloneFetch(b *testing.B) {
	owner, local, _, _, _, closeFn := newSyncBench(b)
	defer closeFn()
	want, err := local.VCS.Objects.Len()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone, err := owner.Clone("bench", "repo", "main")
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := clone.VCS.Objects.Len(); n != want {
			b.Fatalf("clone has %d objects, want %d", n, want)
		}
	}
}
