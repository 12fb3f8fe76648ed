// Tests for the follower: the catch-up property (random push storms on the
// primary converge the replica to bit-identical closures), crash-resume
// from the journaled cursor, full resync after a primary restart, the
// O(delta) wire bound per replicated push, and the cursor journal's crash
// rules.
package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
	"github.com/gitcite/gitcite/internal/workload"
)

const adminTok = "replica-admin-tok"

// startPrimary serves a fresh in-memory platform with the admin token the
// replication feed requires, and returns an owner client for pushes.
func startPrimary(t *testing.T) (*hosting.Platform, *httptest.Server, *extension.Client) {
	t.Helper()
	p := hosting.NewPlatform()
	ts := httptest.NewServer(hosting.NewServer(p, hosting.WithAdminToken(adminTok)))
	t.Cleanup(ts.Close)
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("prime")
	if err != nil {
		t.Fatal(err)
	}
	return p, ts, anon.WithToken(tok)
}

// runReplicator launches cfg's replication loop; the returned stop cancels
// it and waits for Run to return.
func runReplicator(t *testing.T, cfg Config) (*Replicator, func()) {
	t.Helper()
	rep, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rep.Run(ctx)
	}()
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return rep, stop
}

func testConfig(primary string, p *hosting.Platform) Config {
	return Config{
		Primary: primary, Token: adminTok, Platform: p,
		PollInterval: 5 * time.Millisecond, LongPollWait: time.Second,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitBranch waits until the replica's branch reaches want.
func waitBranch(t *testing.T, p *hosting.Platform, owner, name, branch string, want object.ID) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%s/%s@%s → %s", owner, name, branch, want.Short()), func() bool {
		repo, err := p.Repo(context.Background(), owner, name)
		if err != nil {
			return false
		}
		tip, err := repo.VCS.BranchTip(branch)
		return err == nil && tip == want
	})
}

// waitFullResyncs waits until the replicator has counted at least n full
// resyncs; the caller then asserts the exact count.
func waitFullResyncs(t *testing.T, rep *Replicator, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d full resyncs", n), func() bool {
		return rep.Status().FullResyncs >= n
	})
}

func closureSet(t *testing.T, s store.Store, root object.ID) map[object.ID]bool {
	t.Helper()
	set := map[object.ID]bool{}
	err := store.WalkClosure(s, func(id object.ID, _ object.Object) error {
		set[id] = true
		return nil
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// assertSameClosure proves bit-identical convergence: object IDs are
// content hashes, so ID-set equality over the closure is byte equality.
func assertSameClosure(t *testing.T, primary, replica *hosting.Platform, owner, name, branch string) {
	t.Helper()
	prepo, err := primary.Repo(context.Background(), owner, name)
	if err != nil {
		t.Fatal(err)
	}
	rrepo, err := replica.Repo(context.Background(), owner, name)
	if err != nil {
		t.Fatal(err)
	}
	ptip, err := prepo.VCS.BranchTip(branch)
	if err != nil {
		t.Fatal(err)
	}
	rtip, err := rrepo.VCS.BranchTip(branch)
	if err != nil {
		t.Fatal(err)
	}
	if ptip != rtip {
		t.Fatalf("%s tips differ: primary %s, replica %s", branch, ptip.Short(), rtip.Short())
	}
	pset := closureSet(t, prepo.VCS.Objects, ptip)
	rset := closureSet(t, rrepo.VCS.Objects, rtip)
	if len(pset) != len(rset) {
		t.Fatalf("%s closures differ: primary %d objects, replica %d", branch, len(pset), len(rset))
	}
	for id := range pset {
		if !rset[id] {
			t.Fatalf("%s closure object %s missing on replica", branch, id.Short())
		}
	}
}

// TestFollowerCatchUpProperty is the acceptance property test: random push
// storms across several branches on the primary while the follower is live;
// after convergence every branch closure is bit-identical, and accounts and
// memberships replicated too.
func TestFollowerCatchUpProperty(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pp, ts, owner := startPrimary(t)
			cfg := workload.Default()
			cfg.Seed = seed
			cfg.Depth, cfg.Fanout, cfg.FilesPerDir, cfg.FileBytes = 2, 2, 3, 64
			local, tips, err := workload.BuildHistory(cfg, 13)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.CreateRepo("storm", "https://x/storm", ""); err != nil {
				t.Fatal(err)
			}

			rp := hosting.NewPlatform()
			rep, _ := runReplicator(t, testConfig(ts.URL, rp))

			// The storm: every history tip pushed to one of three branches,
			// interleaved with account/membership mutations mid-stream.
			branches := []string{"b0", "b1", "b2"}
			finals := map[string]object.ID{}
			for i, tip := range tips {
				b := branches[i%len(branches)]
				if err := local.VCS.Refs.Set(refs.BranchRef(b), tip); err != nil {
					t.Fatal(err)
				}
				if _, err := owner.Sync(local, "prime", "storm", b); err != nil {
					t.Fatal(err)
				}
				finals[b] = tip
				if i == len(tips)/2 {
					anon := extension.New(ts.URL, "")
					if _, err := anon.CreateUser(fmt.Sprintf("mid%d", seed)); err != nil {
						t.Fatal(err)
					}
					if err := owner.AddMember("prime", "storm", fmt.Sprintf("mid%d", seed)); err != nil {
						t.Fatal(err)
					}
				}
			}

			for _, b := range branches {
				waitBranch(t, rp, "prime", "storm", b, finals[b])
				assertSameClosure(t, pp, rp, "prime", "storm", b)
			}
			member := fmt.Sprintf("mid%d", seed)
			waitFor(t, "membership replication", func() bool {
				return rp.IsMember(context.Background(), member, "prime", "storm")
			})
			// Account tokens replicated: the primary's credentials
			// authenticate on the replica.
			pu, err := pp.Authenticate(context.Background(), mustToken(t, pp, member))
			if err != nil {
				t.Fatal(err)
			}
			if ru, err := rp.Authenticate(context.Background(), pu.Token); err != nil || ru.Name != member {
				t.Errorf("replica Authenticate(%s) = %v, %v", member, ru, err)
			}
			if st := rep.Status(); st.Cursor == 0 || st.Cursor != st.Head {
				t.Errorf("post-convergence status cursor=%d head=%d", st.Cursor, st.Head)
			}
		})
	}
}

// mustToken digs a user's token out of a platform through its snapshot.
func mustToken(t *testing.T, p *hosting.Platform, name string) string {
	t.Helper()
	snap, err := p.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range snap.Users {
		if u.Name == name {
			return u.Token
		}
	}
	t.Fatalf("no user %q on platform", name)
	return ""
}

// TestKillMidCatchUpResumesFromJournaledCursor crashes the follower in the
// middle of a push storm — the replication loop is cancelled and its
// platform abandoned without Close, exactly the state kill -9 leaves on
// disk — and verifies a fresh process over the same directory resumes from
// the journaled cursor, without a full resync, and converges.
func TestKillMidCatchUpResumesFromJournaledCursor(t *testing.T) {
	pp, ts, owner := startPrimary(t)
	cfg := workload.Default()
	cfg.Seed = 5
	cfg.Depth, cfg.Fanout, cfg.FilesPerDir, cfg.FileBytes = 2, 2, 3, 64
	local, tips, err := workload.BuildHistory(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.CreateRepo("crashy", "https://x/crashy", ""); err != nil {
		t.Fatal(err)
	}
	push := func(tip object.ID) {
		if err := local.VCS.Refs.Set(refs.BranchRef("main"), tip); err != nil {
			t.Fatal(err)
		}
		if _, err := owner.Sync(local, "prime", "crashy", "main"); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	rp1, err := hosting.OpenPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig(ts.URL, rp1)
	cfg1.StateDir = dir
	rep1, stop1 := runReplicator(t, cfg1)

	// First half of the storm; wait until at least one batch is journaled.
	for _, tip := range tips[:6] {
		push(tip)
	}
	waitFor(t, "first journaled cursor", func() bool { return rep1.Status().Cursor > 0 })

	// kill -9: cancel the loop mid-catch-up and abandon the platform
	// without closing it. Everything that matters is already fsync'd —
	// the manifest journal by the platform, the cursor by saveCursor.
	stop1()
	killedAt := rep1.Status().Cursor

	// The primary keeps moving while the replica is down.
	for _, tip := range tips[6:] {
		push(tip)
	}

	rp2, err := hosting.OpenPlatform(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp2.Close() })
	cfg2 := testConfig(ts.URL, rp2)
	cfg2.StateDir = dir
	rep2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.Status().Cursor; got != killedAt || got == 0 {
		t.Fatalf("restarted replica loaded cursor %d, journaled %d", got, killedAt)
	}
	rep2, _ = runReplicator(t, cfg2)

	waitBranch(t, rp2, "prime", "crashy", "main", tips[len(tips)-1])
	assertSameClosure(t, pp, rp2, "prime", "crashy", "main")
	if st := rep2.Status(); st.FullResyncs != 0 {
		t.Errorf("resume within the retained window full-resynced %d times, want 0", st.FullResyncs)
	}
}

// TestPrimaryRestartTriggersFullResync restarts the primary mid-stream (new
// process → new feed epoch, journal compacted, cursor past the new head)
// and verifies the follower degrades to one clean full resync — not an
// error loop — and converges on the post-restart pushes.
func TestPrimaryRestartTriggersFullResync(t *testing.T) {
	pdir := t.TempDir()
	pp1, err := hosting.OpenPlatform(pdir)
	if err != nil {
		t.Fatal(err)
	}
	var handler atomic.Value
	handler.Store(http.Handler(hosting.NewServer(pp1, hosting.WithAdminToken(adminTok))))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("prime")
	if err != nil {
		t.Fatal(err)
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("flappy", "https://x/flappy", ""); err != nil {
		t.Fatal(err)
	}
	cfg := workload.Default()
	cfg.Seed = 9
	cfg.Depth, cfg.Fanout, cfg.FilesPerDir, cfg.FileBytes = 2, 2, 3, 64
	local, tips, err := workload.BuildHistory(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	push := func(tip object.ID) {
		if err := local.VCS.Refs.Set(refs.BranchRef("main"), tip); err != nil {
			t.Fatal(err)
		}
		if _, err := owner.Sync(local, "prime", "flappy", "main"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tip := range tips[:5] {
		push(tip)
	}

	rp := hosting.NewPlatform()
	rcfg := testConfig(ts.URL, rp)
	rcfg.StateDir = t.TempDir()
	rep, _ := runReplicator(t, rcfg)
	waitBranch(t, rp, "prime", "flappy", "main", tips[4])
	// The resync applies the tips before it counts itself: wait for both.
	waitFullResyncs(t, rep, 1)
	if got := rep.Status().FullResyncs; got != 1 {
		t.Fatalf("bootstrap full resyncs = %d, want 1", got)
	}

	// Restart the primary: graceful close (manifest compacts), new process.
	if err := pp1.Close(); err != nil {
		t.Fatal(err)
	}
	pp2, err := hosting.OpenPlatform(pdir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pp2.Close() })
	handler.Store(http.Handler(hosting.NewServer(pp2, hosting.WithAdminToken(adminTok))))

	for _, tip := range tips[5:] {
		push(tip)
	}
	waitBranch(t, rp, "prime", "flappy", "main", tips[len(tips)-1])
	waitFullResyncs(t, rep, 2)
	assertSameClosure(t, pp2, rp, "prime", "flappy", "main")
	st := rep.Status()
	if st.FullResyncs != 2 {
		t.Errorf("full resyncs after primary restart = %d, want exactly 2", st.FullResyncs)
	}
	if st.LastError != "" {
		t.Errorf("converged with lingering error %q", st.LastError)
	}
}

// buildWideRepo commits n files in a three-level tree on "main" — the same
// layout the wire-delta bound is specified against.
func buildWideRepo(t *testing.T, n int) (*gitcite.Repo, *gitcite.Worktree) {
	t.Helper()
	repo, err := gitcite.NewMemoryRepo(gitcite.Meta{Owner: "o", Name: "r", URL: "u"})
	if err != nil {
		t.Fatal(err)
	}
	wt, err := repo.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d%d/s%d/f%d.txt", i%10, (i/10)%10, i)
		if err := wt.WriteFile(p, []byte(fmt.Sprintf("seed %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("o", "o@x", time.Unix(1, 0)), Message: "seed"}); err != nil {
		t.Fatal(err)
	}
	return repo, wt
}

// TestReplicatedPushMovesOnlyTheDelta pins the wire bound: after the
// replica is warm, each one-file push on a 500-file repository replicates
// in at most depth+2 (+1 for citation.cite) fetched objects — asserted per
// iteration, the PR 3 delta bound carried over the replication path.
func TestReplicatedPushMovesOnlyTheDelta(t *testing.T) {
	_, ts, owner := startPrimary(t)
	local, wt := buildWideRepo(t, 500)
	if err := owner.CreateRepo("wide", "https://x/wide", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Sync(local, "prime", "wide", "main"); err != nil {
		t.Fatal(err)
	}

	rp := hosting.NewPlatform()
	rep, _ := runReplicator(t, testConfig(ts.URL, rp))
	seedTip, err := local.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	waitBranch(t, rp, "prime", "wide", "main", seedTip)

	const bound = 3 + 2 + 1 // depth trees + blob + commit, + citation.cite blob
	for i := 0; i < 5; i++ {
		before := rep.Status().ObjectsFetched
		if err := wt.WriteFile("/d3/s4/f43.txt", []byte(fmt.Sprintf("edit %d", i))); err != nil {
			t.Fatal(err)
		}
		tip, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("o", "o@x", time.Unix(int64(10+i), 0)), Message: "edit"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.Sync(local, "prime", "wide", "main"); err != nil {
			t.Fatal(err)
		}
		waitBranch(t, rp, "prime", "wide", "main", tip)
		if delta := rep.Status().ObjectsFetched - before; delta > bound {
			t.Errorf("push %d replicated %d wire objects, want ≤ %d", i, delta, bound)
		}
	}
}

// TestCursorJournalCrashRules pins the journal's recovery behaviour: a
// clean record round-trips; missing, foreign, torn and corrupted files all
// read as "no cursor" — the full-resync path — never as a wrong cursor.
func TestCursorJournalCrashRules(t *testing.T) {
	dir := t.TempDir()
	if _, ok := loadCursorFile(dir, "http://p"); ok {
		t.Error("missing cursor file loaded")
	}
	rec := cursorRecord{Primary: "http://p", Epoch: "e1", Cursor: 42}
	if err := saveCursorFile(dir, rec); err != nil {
		t.Fatal(err)
	}
	got, ok := loadCursorFile(dir, "http://p")
	if !ok || got != rec {
		t.Fatalf("round-trip = %+v, %v", got, ok)
	}
	if _, ok := loadCursorFile(dir, "http://other"); ok {
		t.Error("cursor journaled against another primary loaded")
	}

	path := filepath.Join(dir, cursorFileName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: every strict prefix must read as no-cursor.
	for cut := len(whole) - 1; cut > 0; cut -= 7 {
		if err := os.WriteFile(path, whole[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if got, ok := loadCursorFile(dir, "http://p"); ok {
			t.Fatalf("torn file (%d bytes) loaded as %+v", cut, got)
		}
	}
	// Flipped payload byte: CRC must reject.
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-4] ^= 0x20
	if err := os.WriteFile(path, corrupt, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCursorFile(dir, "http://p"); ok {
		t.Error("CRC-corrupted cursor file loaded")
	}
	// A re-save over the wreckage recovers.
	rec.Cursor = 43
	if err := saveCursorFile(dir, rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := loadCursorFile(dir, "http://p"); !ok || got.Cursor != 43 {
		t.Errorf("re-saved cursor = %+v, %v", got, ok)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Primary: "", Platform: hosting.NewPlatform()}); err == nil {
		t.Error("New accepted an empty primary")
	}
	if _, err := New(Config{Primary: "http://p"}); err == nil {
		t.Error("New accepted a nil platform")
	}
	rep, err := New(Config{Primary: "http://p/", Platform: hosting.NewPlatform()})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Status().Primary; got != "http://p" {
		t.Errorf("primary = %q, want trailing slash trimmed", got)
	}
}
