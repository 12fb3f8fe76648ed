// Command gitcite-bench regenerates the paper's demonstration artefacts —
// every figure and listing of the evaluation/demonstration sections — and
// prints paper-vs-measured reports. See EXPERIMENTS.md for the mapping.
//
//	gitcite-bench -experiment all        (default)
//	gitcite-bench -experiment figure1    Figure 1 (right): running example
//	gitcite-bench -experiment architecture  Figure 1 (left): end-to-end flow
//	gitcite-bench -experiment figure2    Figure 2: extension permission flows
//	gitcite-bench -experiment listing1   Listing 1: final citation.cite
//	gitcite-bench -experiment demo       §4 scenario incl. live add/modify
//	gitcite-bench -experiment concurrent concurrent GenCite load generator
//	                                     (-clients N -requests M)
//	gitcite-bench -experiment commit     incremental vs full-rebuild write
//	                                     path (-files N -commits M)
//	gitcite-bench -experiment sync       v1 negotiated incremental sync +
//	                                     ETag/304 reads (-files N -commits M)
//	gitcite-bench -experiment counters   deterministic efficiency counters
//	                                     (machine-readable; CI regression gate)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/format"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/hosting/replica"
	"github.com/gitcite/gitcite/internal/load"
	"github.com/gitcite/gitcite/internal/scenario"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

var (
	clients  = flag.Int("clients", 16, "concurrent clients for -experiment concurrent")
	requests = flag.Int("requests", 500, "requests per client for -experiment concurrent")
	files    = flag.Int("files", 1000, "repository size for -experiment commit")
	commits  = flag.Int("commits", 200, "measured commits for -experiment commit")

	// BENCH_<pr>.json artefact flags (counters + cpumatrix experiments). The
	// PR number is a flag, not a constant: the file refuses to silently
	// clobber a different PR's record unless -force starts it fresh.
	outPath    = flag.String("out", "", "merge results into this BENCH_<pr>.json artefact (validated on write)")
	prNum      = flag.Int("pr", 0, "PR number recorded in -out (required with -out)")
	forceOut   = flag.Bool("force", false, "with -out: overwrite a file recorded for a different PR")
	benchInput = flag.String("bench-input", "-", "cpumatrix: `go test -bench` output to fold (path, or - for stdin)")
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: all, figure1, architecture, figure2, listing1, demo, concurrent, commit, sync, counters, cpumatrix")
	flag.Parse()
	if *outPath != "" && *prNum < 1 {
		fmt.Fprintln(os.Stderr, "gitcite-bench: -out requires -pr <n> (the PR number the file records)")
		os.Exit(2)
	}

	runners := map[string]func() error{
		"figure1":      runFigure1,
		"architecture": runArchitecture,
		"figure2":      runFigure2,
		"listing1":     runListing1,
		"demo":         runDemo,
		"concurrent":   runConcurrent,
		"commit":       runCommit,
		"sync":         runSync,
		"counters":     runCounters,
		"cpumatrix":    runCPUMatrix,
	}
	// cpumatrix is absent from "all": it folds externally produced
	// `go test -bench` output rather than running an experiment itself.
	order := []string{"figure1", "architecture", "figure2", "listing1", "demo", "concurrent", "commit", "sync", "counters"}

	if *experiment != "all" {
		run, ok := runners[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "gitcite-bench: unknown experiment %q\n", *experiment)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "gitcite-bench: %s: %v\n", *experiment, err)
			os.Exit(1)
		}
		return
	}
	for _, name := range order {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "gitcite-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func runFigure1() error {
	res, err := scenario.Figure1()
	if err != nil {
		return err
	}
	return res.Fprint(os.Stdout)
}

func runFigure2() error {
	res, err := scenario.Figure2()
	if err != nil {
		return err
	}
	return res.Fprint(os.Stdout)
}

func runListing1() error {
	res, err := scenario.Listing1()
	if err != nil {
		return err
	}
	return res.Fprint(os.Stdout)
}

// runArchitecture exercises the left half of Figure 1 end-to-end: a local
// tool working against the hosting platform over HTTP — create, push,
// remote GenCite via the extension, remote AddCite, pull back.
func runArchitecture() error {
	fmt.Println("Figure 1 (left): architecture walk-through")
	fmt.Println("------------------------------------------")
	res, err := scenario.Listing1()
	if err != nil {
		return err
	}
	platform := hosting.NewPlatform()
	server := hosting.NewServer(platform)
	ts := httptest.NewServer(server)
	defer ts.Close()

	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("yinjun")
	if err != nil {
		return err
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("Data_citation_demo", res.Demo.Meta.URL, ""); err != nil {
		return err
	}
	n, err := owner.Push(res.Demo, "yinjun", "Data_citation_demo", "master")
	if err != nil {
		return err
	}
	fmt.Printf("  local tool pushed the repository (%d objects, citation.cite included)\n", n)

	text, err := anon.GenCiteRendered("yinjun", "Data_citation_demo", "master", "/CoreCover", "text")
	if err != nil {
		return err
	}
	fmt.Printf("  extension GenCite over REST (anonymous):\n    %s", text)

	commit, err := owner.AddCite("yinjun", "Data_citation_demo", "master", "/schema", core.Citation{
		Owner: "Yinjun Wu", RepoName: "citedb-schema",
		URL: res.Demo.Meta.URL + "/schema", Version: "1",
	})
	if err != nil {
		return err
	}
	fmt.Printf("  extension AddCite committed remotely: %.7s\n", commit)

	tip, err := owner.Pull(res.Demo, "yinjun", "Data_citation_demo", "master", "master")
	if err != nil {
		return err
	}
	cite, from, err := res.Demo.Generate(tip, "/schema/citedb.sql")
	if err != nil {
		return err
	}
	fmt.Printf("  local tool pulled %.7s; Cite(/schema/citedb.sql) now from %s: %s\n",
		tip.String(), from, cite.RepoName)
	return nil
}

// runConcurrent drives the hosting platform's public read path — the
// extension's GenCite, chain and credit endpoints — from many concurrent
// clients against one hosted repository, and reports throughput. This is
// the many-readers regime the resolved-citation index and the sharded
// object caches exist for: after the first request warms a version's
// function, every remaining resolution is an O(1) index hit.
func runConcurrent() error {
	fmt.Println("Concurrent read-path load (resolved-citation index)")
	fmt.Println("---------------------------------------------------")
	if *clients < 1 || *requests < 1 {
		return fmt.Errorf("-clients and -requests must be at least 1 (got %d, %d)", *clients, *requests)
	}
	res, err := scenario.Listing1()
	if err != nil {
		return err
	}
	platform := hosting.NewPlatform()
	server := hosting.NewServer(platform)
	ts := httptest.NewServer(server)
	defer ts.Close()

	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("yinjun")
	if err != nil {
		return err
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("Data_citation_demo", res.Demo.Meta.URL, ""); err != nil {
		return err
	}
	if _, err := owner.Push(res.Demo, "yinjun", "Data_citation_demo", "master"); err != nil {
		return err
	}
	paths := []string{
		"/CoreCover/src/CoreCover.java",
		"/citation/GUI/app.js",
		"/schema/citedb.sql",
		"/",
	}
	// One warm-up request so the measured window is the steady state.
	if _, _, err := anon.GenCite("yinjun", "Data_citation_demo", "master", paths[0]); err != nil {
		return err
	}

	total := *clients * *requests
	errs := make(chan error, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < *requests; i++ {
				p := paths[(c+i)%len(paths)]
				if _, _, err := anon.GenCite("yinjun", "Data_citation_demo", "master", p); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}
	fmt.Printf("  %d clients × %d GenCite requests = %d total\n", *clients, *requests, total)
	// Per-request latency: each of the `clients` goroutines experienced
	// elapsed wall time for its share of requests, so the mean is
	// elapsed×clients/total, not elapsed/total (which would divide the
	// parallelism away).
	fmt.Printf("  wall time %v, throughput %.0f req/s, mean latency %v\n",
		elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(),
		(elapsed * time.Duration(*clients) / time.Duration(total)).Round(time.Microsecond))
	return nil
}

// countingStore wraps a Store to count how many objects each write path
// actually hashes and stores, and how many reads reach it.
type countingStore struct {
	store.Store
	puts atomic.Int64
	gets atomic.Int64
}

func (c *countingStore) Get(id object.ID) (object.Object, error) {
	c.gets.Add(1)
	return c.Store.Get(id)
}

// Close closes the wrapped store when it holds resources (a pack store).
func (c *countingStore) Close() error {
	if cl, ok := c.Store.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

func (c *countingStore) Put(o object.Object) (object.ID, error) {
	c.puts.Add(1)
	return c.Store.Put(o)
}

func (c *countingStore) PutMany(objs []object.Object) ([]object.ID, error) {
	c.puts.Add(int64(len(objs)))
	return store.PutMany(c.Store, objs)
}

func (c *countingStore) PutManyEncoded(batch []store.Encoded) error {
	c.puts.Add(int64(len(batch)))
	return store.PutManyEncoded(c.Store, batch)
}

// runCommit contrasts the two write paths on a -files-sized repository:
// the pre-incremental full rebuild (every blob and tree re-hashed and
// re-Put per commit) against the incremental delta commit (only the dirty
// path re-hashes). This is the commit-traffic regime the paper's
// piggybacking design depends on at hosting-platform scale.
func runCommit() error {
	fmt.Println("Incremental write path (commit-one-file)")
	fmt.Println("----------------------------------------")
	if *files < 1 || *commits < 1 {
		return fmt.Errorf("-files and -commits must be at least 1 (got %d, %d)", *files, *commits)
	}
	fileMap := make(map[string]vcs.FileContent, *files)
	for i := 0; i < *files; i++ {
		p := fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)
		fileMap[p] = vcs.File(fmt.Sprintf("seed content %d", i))
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "bench@x", time.Unix(1, 0)), Message: "bench"}
	edited := "/d3/s4/f0.txt"
	for p := range fileMap {
		edited = p
		break
	}

	// Full rebuild: the old write path.
	cold := &countingStore{Store: store.NewMemoryStore()}
	coldRepo := &vcs.Repository{Objects: cold, Refs: refs.NewMemoryStore()}
	if _, err := coldRepo.CommitFiles("main", fileMap, opts); err != nil {
		return err
	}
	cold.puts.Store(0)
	start := time.Now()
	for i := 0; i < *commits; i++ {
		fileMap[edited] = vcs.File(fmt.Sprintf("edit %d", i))
		if _, err := coldRepo.CommitFiles("main", fileMap, opts); err != nil {
			return err
		}
	}
	coldTime := time.Since(start)
	coldPuts := cold.puts.Load()

	// Incremental: delta against the parent's tree.
	inc := &countingStore{Store: store.NewMemoryStore()}
	incRepo := &vcs.Repository{Objects: inc, Refs: refs.NewMemoryStore()}
	tip, err := incRepo.CommitFiles("main", fileMap, opts)
	if err != nil {
		return err
	}
	base, err := incRepo.TreeOf(tip)
	if err != nil {
		return err
	}
	inc.puts.Store(0)
	start = time.Now()
	for i := 0; i < *commits; i++ {
		edits := map[string]vcs.TreeEdit{edited: {Data: []byte(fmt.Sprintf("edit %d", i))}}
		tip, err = incRepo.CommitDelta("main", base, edits, nil, opts)
		if err != nil {
			return err
		}
		if base, err = incRepo.TreeOf(tip); err != nil {
			return err
		}
	}
	incTime := time.Since(start)
	incPuts := inc.puts.Load()

	fmt.Printf("  repository: %d files; %d one-file commits per mode\n", *files, *commits)
	fmt.Printf("  full rebuild:  %8s/commit, %6.1f store Puts/commit\n",
		(coldTime / time.Duration(*commits)).Round(time.Microsecond), float64(coldPuts)/float64(*commits))
	fmt.Printf("  incremental:   %8s/commit, %6.1f store Puts/commit (tree depth + blob + commit)\n",
		(incTime / time.Duration(*commits)).Round(time.Microsecond), float64(incPuts)/float64(*commits))
	if incTime > 0 {
		fmt.Printf("  speedup: %.1fx wall clock, %.0fx fewer store writes\n",
			float64(coldTime)/float64(incTime), float64(coldPuts)/float64(incPuts))
	}
	return nil
}

// runSync measures the v1 negotiated sync protocol on a -files-sized
// repository. The pre-v1 wire protocol re-transferred the whole closure as
// one in-memory base64 array on every push and pull; v1 negotiates first
// (the peer declares the tips it has, the server answers with exactly the
// missing object IDs) and then streams only that delta, so per-commit
// transfer cost is O(delta) like the PR 2 write path made commits. The
// conditional-GET section measures the ETag/304 fast path on a
// commit-addressed citation read.
func runSync() error {
	fmt.Println("Negotiated incremental sync (API v1)")
	fmt.Println("------------------------------------")
	if *files < 1 || *commits < 1 {
		return fmt.Errorf("-files and -commits must be at least 1 (got %d, %d)", *files, *commits)
	}
	local, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "bench", Name: "repo", URL: "https://x/repo"})
	if err != nil {
		return err
	}
	wt, err := local.Checkout("main")
	if err != nil {
		return err
	}
	edited := ""
	for i := 0; i < *files; i++ {
		p := fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)
		if edited == "" {
			edited = p
		}
		if err := wt.WriteFile(p, []byte(fmt.Sprintf("seed content %d", i))); err != nil {
			return err
		}
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "bench@x", time.Unix(1, 0)), Message: "seed"}
	if _, err := wt.Commit(opts); err != nil {
		return err
	}

	platform := hosting.NewPlatform()
	ts := httptest.NewServer(hosting.NewServer(platform))
	defer ts.Close()
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("bench")
	if err != nil {
		return err
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("repo", "https://x/repo", ""); err != nil {
		return err
	}

	start := time.Now()
	full, err := owner.Sync(local, "bench", "repo", "main")
	if err != nil {
		return err
	}
	fullTime := time.Since(start)
	fmt.Printf("  initial push: %d objects in %s (full closure — nothing to negotiate away)\n",
		full, fullTime.Round(time.Microsecond))

	puller, err := owner.Clone("bench", "repo", "main")
	if err != nil {
		return err
	}

	var pushObjs, pullObjs int
	var pushTime, pullTime time.Duration
	var tip object.ID
	for i := 0; i < *commits; i++ {
		if err := wt.WriteFile(edited, []byte(fmt.Sprintf("edit %d", i))); err != nil {
			return err
		}
		if tip, err = wt.Commit(opts); err != nil {
			return err
		}
		start = time.Now()
		n, err := owner.Sync(local, "bench", "repo", "main")
		if err != nil {
			return err
		}
		pushTime += time.Since(start)
		pushObjs += n
		start = time.Now()
		_, n, err = owner.Fetch(puller, "bench", "repo", "main", "main")
		if err != nil {
			return err
		}
		pullTime += time.Since(start)
		pullObjs += n
	}
	fmt.Printf("  repository: %d files; %d one-file commits per direction\n", *files, *commits)
	fmt.Printf("  incremental push (Sync):  %8s/commit, %5.1f objects/commit on the wire\n",
		(pushTime / time.Duration(*commits)).Round(time.Microsecond), float64(pushObjs)/float64(*commits))
	fmt.Printf("  incremental pull (Fetch): %8s/commit, %5.1f objects/commit on the wire\n",
		(pullTime / time.Duration(*commits)).Round(time.Microsecond), float64(pullObjs)/float64(*commits))
	fmt.Printf("  (full closure would be ~%d objects per transfer)\n", full)

	// Conditional GET: a commit-addressed citation read revalidated by ETag.
	url := fmt.Sprintf("%s/api/v1/repos/bench/repo/cite/%s?path=%s", ts.URL, tip.String(), edited)
	const reads = 200
	var etag string
	start = time.Now()
	for i := 0; i < reads; i++ {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		etag = resp.Header.Get("ETag")
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cite read: status %d", resp.StatusCode)
		}
	}
	warmTime := time.Since(start)
	start = time.Now()
	for i := 0; i < reads; i++ {
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			return fmt.Errorf("conditional cite read: status %d, want 304", resp.StatusCode)
		}
	}
	condTime := time.Since(start)
	fmt.Printf("  commit-addressed GET /cite: 200 in %s/req, 304 revalidation in %s/req (zero citation work)\n",
		(warmTime / reads).Round(time.Microsecond), (condTime / reads).Round(time.Microsecond))
	return nil
}

// runDemo replays §4's live part: adding and modifying citations within the
// current repository on top of the Listing 1 state.
func runDemo() error {
	fmt.Println("§4 demonstration: add/modify within the current repository")
	fmt.Println("-----------------------------------------------------------")
	res, err := scenario.Listing1()
	if err != nil {
		return err
	}
	wt, err := res.Demo.Checkout("master")
	if err != nil {
		return err
	}
	// Add a citation to the schema directory.
	schemaCite := core.Citation{
		Owner: "Yinjun Wu", RepoName: "citedb-schema",
		URL: "https://github.com/thuwuyinjun/Data_citation_demo/schema", Version: "1",
		AuthorList: []string{"Yinjun Wu", "Wei Hu"},
	}
	if err := wt.AddCite("/schema", schemaCite); err != nil {
		return err
	}
	fmt.Println("  AddCite(/schema) — credits the schema authors")
	// Modify the GUI citation (Yanssie gets a co-author).
	guiCite := scenario.ListingGUICitation.Clone()
	guiCite.AuthorList = append(guiCite.AuthorList, "Yinjun Wu")
	if err := wt.ModifyCite("/citation/GUI", guiCite); err != nil {
		return err
	}
	fmt.Println("  ModifyCite(/citation/GUI) — extends the author list")
	commit, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig("Yinjun Wu", "wuyinjun@seas.upenn.edu", time.Date(2018, 9, 4, 3, 0, 0, 0, time.UTC)),
		Message: "live demo: add/modify citations",
	})
	if err != nil {
		return err
	}
	for _, path := range []string{"/schema/citedb.sql", "/citation/GUI/app.js", "/CoreCover/src/CoreCover.java"} {
		cite, from, err := res.Demo.Generate(commit, path)
		if err != nil {
			return err
		}
		rendered, err := format.Render(cite, format.FormatText)
		if err != nil {
			return err
		}
		fmt.Printf("  Cite(%s)  [from %s]\n    %s", path, from, rendered)
	}
	return nil
}

// scanCountingStore counts full-store IDs() enumerations while forwarding
// ordered prefix lookups, so the counters can prove the abbreviated-rev
// read path never falls back to the O(n) scan.
type scanCountingStore struct {
	store.Store
	scans atomic.Int64
}

func (s *scanCountingStore) IDs() ([]object.ID, error) {
	s.scans.Add(1)
	return s.Store.IDs()
}

func (s *scanCountingStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	return store.IDsByPrefix(s.Store, prefix, limit)
}

// runCounters emits the pinned deterministic efficiency counters CI's
// bench-regression job compares between a PR's base and head: pure object
// counts (store writes per commit, wire objects per sync, negotiate body
// IDs, full-store scans per abbreviated resolve), no wall-clock noise.
// Output lines have the stable form "counter <name> = <integer>".
func runCounters() error {
	fmt.Println("Deterministic efficiency counters (CI regression gate)")
	fmt.Println("------------------------------------------------------")
	counters := map[string]int64{}
	emit := func(name string, value int64) {
		fmt.Printf("counter %s = %d\n", name, value)
		counters[name] = value
	}

	// --- store Puts per one-file commit (1000-file repo, 20 commits) ---
	const cFiles, cCommits = 1000, 20
	fileMap := make(map[string]vcs.FileContent, cFiles)
	for i := 0; i < cFiles; i++ {
		fileMap[fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)] = vcs.File(fmt.Sprintf("seed %d", i))
	}
	opts := vcs.CommitOptions{Author: vcs.Sig("bench", "bench@x", time.Unix(1, 0)), Message: "bench"}
	counting := &countingStore{Store: store.NewMemoryStore()}
	repo := &vcs.Repository{Objects: counting, Refs: refs.NewMemoryStore()}
	tip, err := repo.CommitFiles("main", fileMap, opts)
	if err != nil {
		return err
	}
	base, err := repo.TreeOf(tip)
	if err != nil {
		return err
	}
	counting.puts.Store(0)
	for i := 0; i < cCommits; i++ {
		edits := map[string]vcs.TreeEdit{"/d3/s4/f430.txt": {Data: []byte(fmt.Sprintf("edit %d", i))}}
		if tip, err = repo.CommitDelta("main", base, edits, nil, opts); err != nil {
			return err
		}
		if base, err = repo.TreeOf(tip); err != nil {
			return err
		}
	}
	totalPuts := counting.puts.Load()
	if totalPuts%cCommits != 0 {
		return fmt.Errorf("puts per commit not integral: %d over %d commits", totalPuts, cCommits)
	}
	emit("store_puts_per_one_file_commit", totalPuts/cCommits)

	// --- store Puts per merge commit (1000-file repo, one file per side) ---
	// Two branches each edit one file two directories down; MergeBranches
	// may write only what the merge changed in the destination: the
	// directories on theirs' path, the root once for the file merge and
	// once more with the merged citation.cite, that blob and the commit.
	mergeCounting := &countingStore{Store: store.NewMemoryStore()}
	mergeRepo := &gitcite.Repo{
		VCS:  &vcs.Repository{Objects: mergeCounting, Refs: refs.NewMemoryStore()},
		Meta: gitcite.Meta{Owner: "bench", Name: "merge", URL: "https://x/merge"},
	}
	ours, err := mergeRepo.Checkout("main")
	if err != nil {
		return err
	}
	for p, fc := range fileMap {
		if err := ours.WriteFile(p, fc.Data); err != nil {
			return err
		}
	}
	forkPoint, err := ours.Commit(opts)
	if err != nil {
		return err
	}
	if err := mergeRepo.VCS.CreateBranch("side", forkPoint); err != nil {
		return err
	}
	theirs, err := mergeRepo.Checkout("side")
	if err != nil {
		return err
	}
	// Every version gets its own commit time, so each re-dates the root
	// citation and writes a citation.cite of its own, as real ones do.
	at := func(unix int64) vcs.CommitOptions {
		return vcs.CommitOptions{Author: vcs.Sig("bench", "bench@x", time.Unix(unix, 0)), Message: "bench"}
	}
	for i, side := range []struct {
		wt   *gitcite.Worktree
		path string
	}{{ours, "/d3/s4/f430.txt"}, {theirs, "/d7/s2/f127.txt"}} {
		if err := side.wt.WriteFile(side.path, []byte("diverged")); err != nil {
			return err
		}
		if _, err := side.wt.Commit(at(int64(2 + i))); err != nil {
			return err
		}
	}
	mergeCounting.puts.Store(0)
	if res, err := mergeRepo.MergeBranches("main", "side", gitcite.MergeOptions{Commit: at(4)}); err != nil || res.FastForward {
		return fmt.Errorf("merge counter: fast-forward %v, err %v", res.FastForward, err)
	}
	emit("store_puts_per_merge_commit", mergeCounting.puts.Load())

	// --- wire objects per one-commit sync (HTTP, both directions) ---
	local, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "bench", Name: "repo", URL: "https://x/repo"})
	if err != nil {
		return err
	}
	wt, err := local.Checkout("main")
	if err != nil {
		return err
	}
	const sFiles, sCommits = 500, 10
	for i := 0; i < sFiles; i++ {
		if err := wt.WriteFile(fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i), []byte(fmt.Sprintf("seed %d", i))); err != nil {
			return err
		}
	}
	if _, err := wt.Commit(opts); err != nil {
		return err
	}
	platform := hosting.NewPlatform()
	const benchAdminToken = "bench-admin" // lets the replica counter below subscribe to this platform's feed
	ts := httptest.NewServer(hosting.NewServer(platform, hosting.WithAdminToken(benchAdminToken)))
	defer ts.Close()
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("bench")
	if err != nil {
		return err
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("repo", "https://x/repo", ""); err != nil {
		return err
	}
	if _, err := owner.Sync(local, "bench", "repo", "main"); err != nil {
		return err
	}
	puller, err := owner.Clone("bench", "repo", "main")
	if err != nil {
		return err
	}
	var pushObjs, fetchObjs int
	for i := 0; i < sCommits; i++ {
		if err := wt.WriteFile("/d3/s4/f430.txt", []byte(fmt.Sprintf("edit %d", i))); err != nil {
			return err
		}
		if _, err := wt.Commit(opts); err != nil {
			return err
		}
		n, err := owner.Sync(local, "bench", "repo", "main")
		if err != nil {
			return err
		}
		pushObjs += n
		if _, n, err = owner.Fetch(puller, "bench", "repo", "main", "main"); err != nil {
			return err
		}
		fetchObjs += n
	}
	if pushObjs%sCommits != 0 || fetchObjs%sCommits != 0 {
		return fmt.Errorf("wire objects per commit not integral: push %d, fetch %d over %d commits", pushObjs, fetchObjs, sCommits)
	}
	emit("wire_objects_per_one_commit_push", int64(pushObjs/sCommits))
	emit("wire_objects_per_one_commit_fetch", int64(fetchObjs/sCommits))

	// --- IDs listed in a cold-clone negotiate response (want-all mode) ---
	negBody, err := json.Marshal(hosting.NegotiateRequest{Want: "main", Mode: hosting.NegotiateModeWantAll})
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+"/api/v1/repos/bench/repo/negotiate", "application/json", bytes.NewReader(negBody))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cold negotiate: status %d, err %v", resp.StatusCode, err)
	}
	var neg hosting.NegotiateResponse
	if err := json.Unmarshal(data, &neg); err != nil {
		return err
	}
	emit("cold_clone_negotiate_missing_ids", int64(len(neg.Missing)))

	// --- full-store scans per abbreviated-revision resolve ---
	hosted, err := platform.Repo(context.Background(), "bench", "repo")
	if err != nil {
		return err
	}
	sc := &scanCountingStore{Store: hosted.VCS.Objects}
	hosted.VCS.Objects = sc
	hostedTip, err := hosted.VCS.BranchTip("main")
	if err != nil {
		return err
	}
	const resolves = 5
	for i := 0; i < resolves; i++ {
		r, err := http.Get(fmt.Sprintf("%s/api/v1/repos/bench/repo/citefile/%s", ts.URL, hostedTip.String()[:8]))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("abbreviated resolve: status %d", r.StatusCode)
		}
	}
	if sc.scans.Load()%resolves != 0 {
		return fmt.Errorf("scan count not integral: %d over %d resolves", sc.scans.Load(), resolves)
	}
	emit("full_store_scans_per_prefix_resolve", sc.scans.Load()/resolves)

	// --- wire objects per replicated push (read-replica catch-up) ---
	// A live follower of the 500-file repository above: after the initial
	// bootstrap converges (excluded from the measured window), each
	// one-file push must replicate in exactly the PR 3 negotiated delta —
	// the same 5 objects the direct fetch counter pins — because the
	// replication loop rides the same negotiate/fetch machinery.
	replicaPlat := hosting.NewPlatform()
	rep, err := replica.New(replica.Config{
		Primary: ts.URL, Token: benchAdminToken, Platform: replicaPlat,
		PollInterval: 2 * time.Millisecond, LongPollWait: time.Second,
	})
	if err != nil {
		return err
	}
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		_ = rep.Run(repCtx)
	}()
	stopReplica := func() {
		repCancel()
		<-repDone
	}
	defer stopReplica()
	replicaCaughtUp := func(want object.ID) error {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if repo, err := replicaPlat.Repo(repCtx, "bench", "repo"); err == nil {
				if tip, err := repo.VCS.BranchTip("main"); err == nil && tip == want {
					return nil
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("replica did not converge on %s", want.Short())
	}
	if err := replicaCaughtUp(hostedTip); err != nil {
		return err
	}
	baseline := rep.Status().ObjectsFetched
	for i := 0; i < sCommits; i++ {
		if err := wt.WriteFile("/d3/s4/f430.txt", []byte(fmt.Sprintf("replica edit %d", i))); err != nil {
			return err
		}
		pushTip, err := wt.Commit(opts)
		if err != nil {
			return err
		}
		if _, err := owner.Sync(local, "bench", "repo", "main"); err != nil {
			return err
		}
		if err := replicaCaughtUp(pushTip); err != nil {
			return err
		}
	}
	repObjs := rep.Status().ObjectsFetched - baseline
	stopReplica()
	if repObjs%sCommits != 0 {
		return fmt.Errorf("replicated objects per push not integral: %d over %d pushes", repObjs, sCommits)
	}
	emit("replica_wire_objects_per_push", repObjs/sCommits)

	// --- backend reads per warm one-file commit ---
	// A pack-backed repository behind the decoded-object cache takes two
	// consecutive commits to one file four directories down. The second
	// rebuilds the five trees the first one wrote a moment earlier; the
	// cache holds them because the writer handed them over decoded, so no
	// read may reach the pack.
	warmDir, err := os.MkdirTemp("", "gitcite-counters-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(warmDir)
	warmPack, err := store.NewPackStore(warmDir)
	if err != nil {
		return err
	}
	defer warmPack.Close()
	below := &countingStore{Store: warmPack}
	warmRepo := &vcs.Repository{Objects: store.NewCachedStore(below, 4096), Refs: refs.NewMemoryStore()}
	const warmPath = "/a/b/c/d/f.txt"
	warmTip, err := warmRepo.CommitFiles("main", map[string]vcs.FileContent{
		warmPath: vcs.File("seed"), "/a/g.txt": vcs.File("g"), "/h.txt": vcs.File("h"),
	}, opts)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		warmBase, err := warmRepo.TreeOf(warmTip)
		if err != nil {
			return err
		}
		below.gets.Store(0)
		edits := map[string]vcs.TreeEdit{warmPath: {Data: []byte(fmt.Sprintf("edit %d", i))}}
		if warmTip, err = warmRepo.CommitDelta("main", warmBase, edits, nil, opts); err != nil {
			return err
		}
	}
	emit("backend_gets_per_warm_one_file_commit", below.gets.Load())

	// --- index bytes per 64-object pack append batch ---
	// The incremental index format journals one O(batch) segment per
	// append batch, so this delta must be a constant — measured here at
	// 0, 1k and 8k pre-existing objects, it may not vary with pack size.
	const idxBatch = 64
	idxDelta := int64(-1)
	for _, preload := range []int{0, 1000, 8000} {
		dir, err := os.MkdirTemp("", "gitcite-counters-pack-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ps, err := store.NewPackStore(dir)
		if err != nil {
			return err
		}
		for start := 0; start < preload; start += 500 {
			n := min(500, preload-start)
			batch := make([]store.Encoded, n)
			for j := 0; j < n; j++ {
				enc := object.Encode(object.NewBlobString(fmt.Sprintf("pre %d", start+j)))
				batch[j] = store.Encoded{ID: object.HashBytes(enc), Enc: enc}
			}
			if err := ps.PutManyEncoded(batch); err != nil {
				return err
			}
		}
		before := ps.IdxBytesWritten()
		probe := make([]store.Encoded, idxBatch)
		for j := range probe {
			enc := object.Encode(object.NewBlobString(fmt.Sprintf("probe %d", j)))
			probe[j] = store.Encoded{ID: object.HashBytes(enc), Enc: enc}
		}
		if err := ps.PutManyEncoded(probe); err != nil {
			return err
		}
		delta := ps.IdxBytesWritten() - before
		if err := ps.Close(); err != nil {
			return err
		}
		if idxDelta == -1 {
			idxDelta = delta
		} else if delta != idxDelta {
			return fmt.Errorf("idx bytes per append batch depend on pack size: %d at %d pre-existing objects, %d earlier",
				delta, preload, idxDelta)
		}
	}
	emit("idx_bytes_per_64_object_append_batch", idxDelta)

	// --- open repository handles after a 10k-request workload ---
	// A persistent platform with a 32-repo catalogue and an 8-handle LRU
	// serves 10k requests cycling every repository; the resident handle
	// count afterwards must equal the cap, however many repositories were
	// touched — the counter that keeps the hosted daemon's FD/memory
	// footprint flat as catalogues grow.
	const lruLimit, lruRepos, lruRequests = 8, 32, 10000
	lruDir, err := os.MkdirTemp("", "gitcite-counters-lru-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(lruDir)
	lruPlat, err := hosting.OpenPlatform(lruDir, hosting.WithOpenRepoLimit(lruLimit))
	if err != nil {
		return err
	}
	defer lruPlat.Close()
	lruUser, err := lruPlat.CreateUser(context.Background(), "bench")
	if err != nil {
		return err
	}
	for i := 0; i < lruRepos; i++ {
		hostedRepo, err := lruPlat.CreateRepoAs(context.Background(), lruUser, fmt.Sprintf("r%d", i), "https://x/r", "MIT")
		if err != nil {
			return err
		}
		hwt, err := hostedRepo.Checkout("main")
		if err != nil {
			return err
		}
		if err := hwt.WriteFile("/data.txt", []byte(fmt.Sprintf("repo %d", i))); err != nil {
			return err
		}
		if _, err := hwt.Commit(opts); err != nil {
			return err
		}
	}
	lruSrv := httptest.NewServer(hosting.NewServer(lruPlat))
	defer lruSrv.Close()
	for i := 0; i < lruRequests; i++ {
		r, err := http.Get(fmt.Sprintf("%s/api/v1/repos/bench/r%d", lruSrv.URL, i%lruRepos))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("lru workload: status %d on request %d", r.StatusCode, i)
		}
	}
	emit("open_repos_after_10k_requests", int64(lruPlat.OpenRepoCount()))

	// --- backend reads per reopened cite ---
	// A platform that keeps one repository open serves a cite of A at a
	// version, then of B, then of A at the same version again. The third
	// request reopens A with a cold object cache; the platform's function
	// cache still holds the version's decoded citation.cite under its root
	// tree, so the only read that reaches the pack is the commit's — the
	// read that proves the version is A's.
	reopenDir, err := os.MkdirTemp("", "gitcite-counters-reopen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(reopenDir)
	var reopenMu sync.Mutex
	reopened := map[string]*countingStore{} // the latest open of each repository
	reopenPlat, err := hosting.OpenPlatform(reopenDir, hosting.WithOpenRepoLimit(1),
		hosting.WithRepoFactory(func(meta gitcite.Meta) (*gitcite.Repo, error) {
			root := filepath.Join(reopenDir, meta.Owner, meta.Name)
			pack, err := store.NewPackStore(filepath.Join(root, "objects"))
			if err != nil {
				return nil, err
			}
			rs, err := refs.NewFileStore(root)
			if err != nil {
				pack.Close()
				return nil, err
			}
			below := &countingStore{Store: pack}
			reopenMu.Lock()
			reopened[meta.Name] = below
			reopenMu.Unlock()
			return &gitcite.Repo{VCS: &vcs.Repository{Objects: store.NewCachedStore(below, 4096), Refs: rs}, Meta: meta}, nil
		}))
	if err != nil {
		return err
	}
	defer reopenPlat.Close()
	reopenUser, err := reopenPlat.CreateUser(context.Background(), "bench")
	if err != nil {
		return err
	}
	reopenTips := map[string]object.ID{}
	for _, name := range []string{"a", "b"} {
		if _, err := reopenPlat.CreateRepoAs(context.Background(), reopenUser, name, "https://x/"+name, "MIT"); err != nil {
			return err
		}
		hostedRepo, release, err := reopenPlat.AcquireForWrite(context.Background(), reopenUser, "bench", name)
		if err != nil {
			return err
		}
		hwt, err := hostedRepo.Checkout("main")
		if err == nil {
			err = hwt.WriteFile("/pkg/f.txt", []byte(name))
		}
		if err == nil {
			err = hwt.AddCite("/pkg", core.Citation{Owner: "up", RepoName: name, URL: "https://x/up", Version: "1"})
		}
		if err == nil {
			reopenTips[name], err = hwt.Commit(opts)
		}
		release()
		if err != nil {
			return err
		}
	}
	reopenSrv := httptest.NewServer(hosting.NewServer(reopenPlat))
	defer reopenSrv.Close()
	var firstOpen *countingStore
	for i, name := range []string{"a", "b", "a"} {
		r, err := http.Get(fmt.Sprintf("%s/api/v1/repos/bench/%s/cite/%s?path=/pkg/f.txt", reopenSrv.URL, name, reopenTips[name]))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("reopened cite %s: status %d", name, r.StatusCode)
		}
		reopenMu.Lock()
		latest := reopened["a"]
		reopenMu.Unlock()
		switch {
		case i == 0:
			firstOpen = latest
		case i == 2 && latest == firstOpen:
			return fmt.Errorf("reopened cite: the one-handle platform did not reopen a")
		case i == 2:
			// The third request's handle is a fresh open: every read it
			// counted is that request's.
			emit("backend_gets_per_reopened_cite", latest.gets.Load())
		}
	}

	if *outPath != "" {
		err := load.UpdateBenchFile(*outPath, *prNum, *forceOut, func(f *load.BenchFile) {
			f.Counters = counters
		})
		if err != nil {
			return err
		}
		fmt.Printf("  wrote %d counters to %s\n", len(counters), *outPath)
	}
	return nil
}

// runCPUMatrix folds `go test -bench ... -cpu 1,4` output (read from
// -bench-input) into the -out artefact's cpu_matrix section, replacing the
// loose parallel-cpu-matrix.txt CI used to upload.
func runCPUMatrix() error {
	if *outPath == "" {
		return fmt.Errorf("cpumatrix needs -out (the BENCH_<pr>.json to fold into)")
	}
	in := os.Stdin
	if *benchInput != "-" {
		f, err := os.Open(*benchInput)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	matrix, err := load.ParseGoBench(in)
	if err != nil {
		return err
	}
	if len(matrix) == 0 {
		return fmt.Errorf("no Benchmark lines found in %s", *benchInput)
	}
	if err := load.UpdateBenchFile(*outPath, *prNum, *forceOut, func(f *load.BenchFile) {
		f.CPUMatrix = matrix
	}); err != nil {
		return err
	}
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		procs := make([]string, 0, len(matrix[name]))
		for p := range matrix[name] {
			procs = append(procs, p)
		}
		sort.Strings(procs)
		for _, p := range procs {
			b := matrix[name][p]
			fmt.Printf("  %s @ GOMAXPROCS=%s: %.0f ns/op (%d runs)\n", name, p, b.NsPerOp, b.Runs)
		}
	}
	fmt.Printf("  folded %d benchmarks into %s\n", len(names), *outPath)
	return nil
}
