// Tests for the v1 API surface: negotiated incremental sync, streaming
// transfer, immutable-read caching (ETag/304), cursor pagination,
// abbreviated revisions, push validation ordering, CORS and rate limiting.
package hosting_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
	"github.com/gitcite/gitcite/internal/workload"
)

// ---- negotiate / MissingObjects ----

// buildNFileRepo commits n files in a three-level tree on "main".
func buildNFileRepo(t testing.TB, n int) (*gitcite.Repo, *gitcite.Worktree) {
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

func closureSet(t testing.TB, s store.Store, root object.ID) map[object.ID]bool {
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

// TestMissingObjectsDeltaBound pins the O(delta) guarantee the negotiate
// endpoint is built on: one new commit touching one file at tree depth 3 in
// a 1000-file repository negotiates to exactly depth+2 = 5 objects (3 trees
// + 1 blob + 1 commit), and those objects are precisely the closure
// difference.
func TestMissingObjectsDeltaBound(t *testing.T) {
	repo, wt := buildNFileRepo(t, 1000)
	tip1, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/d3/s4/f435.txt", []byte("edited")); err != nil {
		t.Fatal(err)
	}
	tip2, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("o", "o@x", time.Unix(2, 0)), Message: "edit"})
	if err != nil {
		t.Fatal(err)
	}
	missing, err := hosting.MissingObjects(repo.VCS.Objects, tip2, []object.ID{tip1})
	if err != nil {
		t.Fatal(err)
	}
	// citation.cite changes too (root stamp), so the delta is the root tree,
	// 2 path trees, 2 blobs (file + citation.cite) and the commit — but
	// never more than depth+2 plus the citation blob.
	const depth = 3
	if len(missing) > depth+2+1 {
		t.Fatalf("missing = %d objects, want ≤ %d", len(missing), depth+2+1)
	}
	// Correctness: closure(tip1) ∪ missing ⊇ closure(tip2) and every missing
	// object is in closure(tip2).
	have := closureSet(t, repo.VCS.Objects, tip1)
	wantSet := closureSet(t, repo.VCS.Objects, tip2)
	for _, id := range missing {
		if !wantSet[id] {
			t.Errorf("missing object %s not in closure(tip2)", id.Short())
		}
		have[id] = true
	}
	for id := range wantSet {
		if !have[id] {
			t.Errorf("closure(tip2) object %s neither in closure(tip1) nor missing", id.Short())
		}
	}
	// An up-to-date peer negotiates to nothing.
	none, err := hosting.MissingObjects(repo.VCS.Objects, tip2, []object.ID{tip2})
	if err != nil || len(none) != 0 {
		t.Errorf("up-to-date negotiate = %d objects, %v", len(none), err)
	}
	// An empty have-set yields the full closure.
	all, err := hosting.MissingObjects(repo.VCS.Objects, tip2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(wantSet) {
		t.Errorf("cold negotiate = %d objects, want %d", len(all), len(wantSet))
	}
}

// TestNegotiateSyncPropertyRoundTrip is the sync property test: for random
// edit histories, a client that cloned at an arbitrary point and then
// fetches incrementally ends bit-identical to the server (IDs are content
// hashes, so ID-set equality is byte equality), and the transfer is smaller
// than a full pull.
func TestNegotiateSyncPropertyRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := workload.Default()
			cfg.Seed = seed
			cfg.Depth, cfg.Fanout, cfg.FilesPerDir, cfg.FileBytes = 2, 2, 3, 64
			local, tips, err := workload.BuildHistory(cfg, 12)
			if err != nil {
				t.Fatal(err)
			}
			fx := newFixture(t)
			if err := fx.owner.CreateRepo("sync", "https://x/sync", ""); err != nil {
				t.Fatal(err)
			}
			// Push the history up to an intermediate tip, clone there.
			mid := tips[5+int(seed)%4]
			if err := local.VCS.Refs.Set(refs.BranchRef("wip"), mid); err != nil {
				t.Fatal(err)
			}
			if _, err := fx.owner.Sync(local, "leshang", "sync", "wip"); err != nil {
				t.Fatal(err)
			}
			clone, err := fx.owner.Clone("leshang", "sync", "wip")
			if err != nil {
				t.Fatal(err)
			}
			// Server advances to the final tip (incremental push).
			final := tips[len(tips)-1]
			if err := local.VCS.Refs.Set(refs.BranchRef("wip"), final); err != nil {
				t.Fatal(err)
			}
			pushed, err := fx.owner.Sync(local, "leshang", "sync", "wip")
			if err != nil {
				t.Fatal(err)
			}
			localFull := closureSet(t, local.VCS.Objects, final)
			if pushed == 0 || pushed >= len(localFull) {
				t.Errorf("incremental push sent %d objects, full closure is %d", pushed, len(localFull))
			}
			// Client catches up incrementally.
			gotTip, fetched, err := fx.owner.Fetch(clone, "leshang", "sync", "wip", "wip")
			if err != nil {
				t.Fatal(err)
			}
			if gotTip != final {
				t.Fatalf("fetched tip %s, want %s", gotTip.Short(), final.Short())
			}
			if fetched == 0 || fetched >= len(localFull) {
				t.Errorf("incremental fetch moved %d objects, full closure is %d", fetched, len(localFull))
			}
			// Post-sync closures are identical on all three stores.
			cloneSet := closureSet(t, clone.VCS.Objects, final)
			serverRepo := mustPlatformRepo(t, fx, "leshang", "sync")
			serverSet := closureSet(t, serverRepo.VCS.Objects, final)
			if !sameIDSet(cloneSet, serverSet) || !sameIDSet(cloneSet, localFull) {
				t.Errorf("closures differ after sync: clone=%d server=%d local=%d",
					len(cloneSet), len(serverSet), len(localFull))
			}
			// And the synced repository still answers citation reads.
			if _, _, err := fx.anon.GenCite("leshang", "sync", "wip", "/"); err != nil {
				t.Errorf("GenCite on synced repo: %v", err)
			}
		})
	}
}

func mustPlatformRepo(t testing.TB, fx *fixture, owner, name string) *gitcite.Repo {
	t.Helper()
	repo, err := fx.platform.Repo(context.Background(), owner, name)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func sameIDSet(a, b map[object.ID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// TestFetchTransfersDelta is the acceptance-criterion check over the full
// HTTP stack: after a one-file commit on a 1000-file hosted repository, an
// up-to-date client's Fetch moves at most depth+2 (+1 for citation.cite)
// wire objects, not the closure.
func TestFetchTransfersDelta(t *testing.T) {
	fx := newFixture(t)
	local, wt := buildNFileRepo(t, 1000)
	if err := fx.owner.CreateRepo("big", "https://x/big", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.owner.Sync(local, "leshang", "big", "main"); err != nil {
		t.Fatal(err)
	}
	clone, err := fx.owner.Clone("leshang", "big", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := wt.WriteFile("/d3/s4/f435.txt", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if _, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("o", "o@x", time.Unix(3, 0)), Message: "edit"}); err != nil {
		t.Fatal(err)
	}
	pushed, err := fx.owner.Sync(local, "leshang", "big", "main")
	if err != nil {
		t.Fatal(err)
	}
	_, fetched, err := fx.owner.Fetch(clone, "leshang", "big", "main", "main")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 3 + 2 + 1 // depth trees + blob + commit, + citation.cite blob
	if pushed > bound || fetched > bound {
		t.Errorf("one-file commit moved push=%d fetch=%d wire objects, want ≤ %d", pushed, fetched, bound)
	}
}

// ---- immutable-read caching ----

func TestETagConditionalReads(t *testing.T) {
	fx := newFixture(t)
	repo := mustPlatformRepo(t, fx, "leshang", "P1")
	tip, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path, etag string) *http.Response {
		req, err := http.NewRequest("GET", fx.server.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Branch-addressed read: 200 with the commit's ETag, must-revalidate.
	resp := get("/api/v1/repos/leshang/P1/cite/main?path=/src/main.py", "")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+tip.String()+`"` {
		t.Errorf("ETag = %q, want quoted commit ID", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("branch-addressed Cache-Control = %q", cc)
	}
	// Revalidation: 304.
	resp = get("/api/v1/repos/leshang/P1/cite/main?path=/src/main.py", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match status = %d, want 304", resp.StatusCode)
	}
	// Weak-form and list-form validators match too.
	resp = get("/api/v1/repos/leshang/P1/cite/main?path=/src/main.py", `"zzz", W/`+etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("list If-None-Match status = %d, want 304", resp.StatusCode)
	}
	// Commit-addressed read: immutable Cache-Control.
	resp = get("/api/v1/repos/leshang/P1/tree/"+tip.String(), "")
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("commit-addressed Cache-Control = %q, want immutable", cc)
	}
	// A stale validator still gets 200.
	resp = get("/api/v1/repos/leshang/P1/cite/main?path=/src/main.py", `"deadbeef"`)
	if resp.StatusCode != 200 {
		t.Errorf("stale If-None-Match status = %d, want 200", resp.StatusCode)
	}

	// Zero-resolution proof: a commit with no citation.cite 404s on a plain
	// read, but the 304 path answers before citation resolution is ever
	// attempted — matching validators short-circuit all citation work.
	bare, err := repo.VCS.CommitFiles("bare", map[string]vcs.FileContent{"/x.txt": vcs.File("x")},
		vcs.CommitOptions{Author: vcs.Sig("o", "o@x", time.Unix(9, 0)), Message: "no citefile"})
	if err != nil {
		t.Fatal(err)
	}
	barePath := "/api/v1/repos/leshang/P1/cite/" + bare.String()
	if resp = get(barePath, ""); resp.StatusCode != 404 {
		t.Errorf("citation read of citation-less commit = %d, want 404", resp.StatusCode)
	}
	if resp = get(barePath, `"`+bare.String()+`"`); resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional citation read of citation-less commit = %d, want 304", resp.StatusCode)
	}
}

// ---- pagination ----

func TestTreePagination(t *testing.T) {
	fx := newFixture(t)
	full, err := fx.anon.Tree("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Fatalf("fixture tree too small: %d entries", len(full))
	}
	var paged []hosting.TreeEntryResponse
	cursor := ""
	pages := 0
	for {
		page, err := fx.anon.TreePage("leshang", "P1", "main", cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Entries) > 3 {
			t.Fatalf("page of %d entries exceeds limit 3", len(page.Entries))
		}
		paged = append(paged, page.Entries...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages < 2 {
		t.Errorf("pagination served %d pages, want ≥ 2", pages)
	}
	if len(paged) != len(full) {
		t.Fatalf("paged total %d, full listing %d", len(paged), len(full))
	}
	for i := range full {
		if paged[i] != full[i] {
			t.Errorf("entry %d differs: paged %+v, full %+v", i, paged[i], full[i])
		}
	}
	// Invalid cursor and limit are bad requests with the stable code.
	for _, q := range []string{"cursor=abc", "limit=-1", "cursor=-2"} {
		resp, err := http.Get(fx.server.URL + "/api/v1/repos/leshang/P1/tree/main?" + q)
		if err != nil {
			t.Fatal(err)
		}
		var body hosting.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 400 || body.Code != hosting.CodeBadRequest {
			t.Errorf("%s: status=%d code=%q err=%v", q, resp.StatusCode, body.Code, err)
		}
	}
}

// ---- abbreviated revisions ----

func TestShortRevPrefix(t *testing.T) {
	fx := newFixture(t)
	repo := mustPlatformRepo(t, fx, "leshang", "P1")
	tip, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	// An unambiguous 8-char prefix resolves like the full ID.
	short := tip.String()[:8]
	fullTree, err := fx.anon.Tree("leshang", "P1", tip.String())
	if err != nil {
		t.Fatal(err)
	}
	shortTree, err := fx.anon.Tree("leshang", "P1", short)
	if err != nil {
		t.Fatalf("short rev %q: %v", short, err)
	}
	if len(shortTree) != len(fullTree) {
		t.Errorf("short rev listing %d entries, full %d", len(shortTree), len(fullTree))
	}
	// Uppercase prefixes are accepted.
	if _, err := fx.anon.Tree("leshang", "P1", strings.ToUpper(short)); err != nil {
		t.Errorf("uppercase short rev: %v", err)
	}
	// Too-short prefixes are not resolved.
	if _, err := fx.anon.Tree("leshang", "P1", tip.String()[:3]); !isAPIStatus(err, 404) {
		t.Errorf("3-char rev = %v, want 404", err)
	}

	// Manufacture a prefix collision: spam deterministic commits until two
	// commit IDs share their first 4 hex chars (content is fixed, so the
	// number needed is stable), then ask for that prefix.
	ids := []object.ID{tip}
	prefix := ""
	byPrefix := map[string]int{tip.String()[:4]: 1}
	for i := 0; i < 3000 && prefix == ""; i++ {
		id, err := repo.VCS.CommitFiles("spam", map[string]vcs.FileContent{"/s.txt": vcs.File(fmt.Sprint(i))},
			vcs.CommitOptions{Author: vcs.Sig("s", "s@x", time.Unix(int64(i), 0)), Message: fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		p := id.String()[:4]
		if byPrefix[p]++; byPrefix[p] > 1 {
			prefix = p
		}
	}
	if prefix == "" {
		t.Fatal("no 4-char commit prefix collision in 3000 commits")
	}
	_, err = fx.anon.Tree("leshang", "P1", prefix)
	var apiErr *extension.APIError
	if !isAPIErr(err, &apiErr) || apiErr.Status != 409 || apiErr.Code != hosting.CodeAmbiguousRef {
		t.Errorf("ambiguous prefix %q = %v, want 409 %s", prefix, err, hosting.CodeAmbiguousRef)
	}
}

func isAPIErr(err error, target **extension.APIError) bool {
	return errors.As(err, target)
}

func isAPIStatus(err error, status int) bool {
	var e *extension.APIError
	return isAPIErr(err, &e) && e.Status == status
}

// ---- push validation ordering ----

// TestPushGarbageLandsNothing pins the satellite fix: a push whose tip is
// not a commit reachable from the uploaded objects and current refs is
// rejected BEFORE anything is stored, so orphan objects cannot land.
func TestPushGarbageLandsNothing(t *testing.T) {
	fx := newFixture(t)
	repo := mustPlatformRepo(t, fx, "leshang", "P1")
	tipBefore, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	lenBefore, err := repo.VCS.Objects.Len()
	if err != nil {
		t.Fatal(err)
	}
	orphan := object.NewBlobString("orphan payload")
	orphanEnc := object.Encode(orphan)
	orphanID := object.HashBytes(orphanEnc)
	fakeTip := strings.Repeat("ab", 32) // valid hex, no such commit

	push := func(path, contentType string, body []byte) *http.Response {
		req, err := http.NewRequest("POST", fx.server.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+fx.ownerTok)
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// v1 streaming push: header + one orphan blob, tip pointing nowhere.
	var v1 bytes.Buffer
	fmt.Fprintf(&v1, `{"branch":"main","tip":"%s"}`+"\n", fakeTip)
	fmt.Fprintf(&v1, `{"d":"%s"}`+"\n", base64.StdEncoding.EncodeToString(orphanEnc))
	if resp := push("/api/v1/repos/leshang/P1/push", hosting.MediaTypeNDJSON, v1.Bytes()); resp.StatusCode != 400 {
		t.Errorf("v1 garbage push status = %d, want 400", resp.StatusCode)
	}

	// A push whose tip is a blob is equally rejected.
	var blobTip bytes.Buffer
	fmt.Fprintf(&blobTip, `{"branch":"main","tip":"%s"}`+"\n", orphanID.String())
	fmt.Fprintf(&blobTip, `{"d":"%s"}`+"\n", base64.StdEncoding.EncodeToString(orphanEnc))
	if resp := push("/api/v1/repos/leshang/P1/push", hosting.MediaTypeNDJSON, blobTip.Bytes()); resp.StatusCode != 400 {
		t.Errorf("blob-tip push status = %d, want 400", resp.StatusCode)
	}

	// Nothing landed and the ref did not move.
	if ok, _ := repo.VCS.Objects.Has(orphanID); ok {
		t.Error("orphan object landed in the store")
	}
	lenAfter, err := repo.VCS.Objects.Len()
	if err != nil {
		t.Fatal(err)
	}
	if lenAfter != lenBefore {
		t.Errorf("store grew from %d to %d objects on rejected pushes", lenBefore, lenAfter)
	}
	if tip, _ := repo.VCS.BranchTip("main"); tip != tipBefore {
		t.Error("branch moved on rejected push")
	}
}

// ---- CORS ----

func TestCORS(t *testing.T) {
	fx := newFixture(t) // default allows any origin
	// Preflight.
	req, err := http.NewRequest("OPTIONS", fx.server.URL+"/api/v1/repos/leshang/P1/cite/main", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Origin", "chrome-extension://gitcite")
	req.Header.Set("Access-Control-Request-Method", "GET")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("preflight status = %d, want 204", resp.StatusCode)
	}
	if got := resp.Header.Get("Access-Control-Allow-Origin"); got != "*" {
		t.Errorf("preflight Allow-Origin = %q, want *", got)
	}
	if got := resp.Header.Get("Access-Control-Allow-Methods"); !strings.Contains(got, "DELETE") {
		t.Errorf("preflight Allow-Methods = %q", got)
	}
	// Simple request carries the headers too.
	req, _ = http.NewRequest("GET", fx.server.URL+"/api/v1/repos/leshang/P1/cite/main?path=/", nil)
	req.Header.Set("Origin", "chrome-extension://gitcite")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Access-Control-Allow-Origin"); got != "*" {
		t.Errorf("GET Allow-Origin = %q, want *", got)
	}
	if got := resp.Header.Get("Access-Control-Expose-Headers"); !strings.Contains(got, "ETag") {
		t.Errorf("Expose-Headers = %q, want ETag", got)
	}

	// A restricted server echoes only the configured origin.
	p := hosting.NewPlatform()
	restricted := hosting.NewServer(p, hosting.WithAllowedOrigin("https://ext.example"))
	rec := func(origin string) string {
		req, _ := http.NewRequest("GET", "/api/v1/repos/a/b", nil)
		req.Header.Set("Origin", origin)
		w := &headerRecorder{header: http.Header{}}
		restricted.ServeHTTP(w, req)
		return w.header.Get("Access-Control-Allow-Origin")
	}
	if got := rec("https://ext.example"); got != "https://ext.example" {
		t.Errorf("allowed origin got %q", got)
	}
	if got := rec("https://evil.example"); got != "" {
		t.Errorf("disallowed origin got %q", got)
	}
}

// headerRecorder is a minimal ResponseWriter for middleware-only assertions.
type headerRecorder struct {
	header http.Header
	status int
}

func (r *headerRecorder) Header() http.Header         { return r.header }
func (r *headerRecorder) Write(b []byte) (int, error) { return len(b), nil }
func (r *headerRecorder) WriteHeader(code int)        { r.status = code }

// ---- rate limiting ----

func TestRateLimit(t *testing.T) {
	p := hosting.NewPlatform()
	srv := hosting.NewServer(p, hosting.WithRateLimit(0.0001, 3)) // burst 3, negligible refill
	u, err := p.CreateUser(context.Background(), "limited")
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.CreateUser(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}
	do := func(token string) (int, string) {
		req, _ := http.NewRequest("GET", "/api/v1/repos/nobody/ghost", nil)
		req.RemoteAddr = "10.0.0.1:1234"
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		w := &bodyRecorder{headerRecorder: headerRecorder{header: http.Header{}}}
		srv.ServeHTTP(w, req)
		var body hosting.ErrorResponse
		_ = json.Unmarshal(w.body.Bytes(), &body)
		return w.status, body.Code
	}
	for i := 0; i < 3; i++ {
		if status, _ := do(u.Token); status != 404 {
			t.Fatalf("request %d status = %d, want 404 (within burst)", i, status)
		}
	}
	status, code := do(u.Token)
	if status != http.StatusTooManyRequests || code != hosting.CodeRateLimited {
		t.Errorf("over-burst request = %d %q, want 429 %s", status, code, hosting.CodeRateLimited)
	}
	// Another token has its own bucket.
	if status, _ := do(other.Token); status != 404 {
		t.Errorf("other token status = %d, want 404", status)
	}
}

type bodyRecorder struct {
	headerRecorder
	body bytes.Buffer
}

func (r *bodyRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// ---- error codes ----

func TestErrorCodesAreStable(t *testing.T) {
	fx := newFixture(t)
	var apiErr *extension.APIError
	if _, err := fx.anon.GetRepo("nobody", "ghost"); !isAPIErr(err, &apiErr) || apiErr.Code != hosting.CodeNotFound {
		t.Errorf("missing repo = %v, want code %s", err, hosting.CodeNotFound)
	}
	if _, err := fx.anon.CreateUser("leshang"); !isAPIErr(err, &apiErr) || apiErr.Code != hosting.CodeConflict {
		t.Errorf("duplicate user = %v, want code %s", err, hosting.CodeConflict)
	}
	cite := core.Citation{Owner: "x", RepoName: "y", URL: "u", Version: "1"}
	if _, err := fx.anon.AddCite("leshang", "P1", "main", "/src", cite); !isAPIErr(err, &apiErr) || apiErr.Code != hosting.CodeUnauthorized {
		t.Errorf("anonymous edit = %v, want code %s", err, hosting.CodeUnauthorized)
	}
	// An invalid bearer token is rejected by the auth middleware.
	bogus := fx.anon.WithToken("gct_bogus")
	if _, err := bogus.GetRepo("leshang", "P1"); !isAPIErr(err, &apiErr) || apiErr.Status != 401 {
		t.Errorf("bogus token = %v, want 401", err)
	}
}

// ---- concurrency ----

// TestConcurrentPullsDuringPushes runs incremental pushes, incremental
// fetches, streaming pulls and citation reads against one repository at
// once (run under -race in CI): readers must never block on or be broken by
// in-flight pushes.
func TestConcurrentPullsDuringPushes(t *testing.T) {
	fx := newFixture(t)
	local, err := fx.owner.Clone("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	wt, err := local.Checkout("main")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	done := make(chan struct{})

	// Pusher: one-file commits synced incrementally.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 15; i++ {
			if err := wt.WriteFile("/churn.txt", []byte(fmt.Sprint(i))); err != nil {
				errCh <- err
				return
			}
			if _, err := wt.Commit(vcs.CommitOptions{Author: vcs.Sig("l", "l@x", time.Unix(int64(100+i), 0)), Message: "churn"}); err != nil {
				errCh <- err
				return
			}
			if _, err := fx.owner.Sync(local, "leshang", "P1", "main"); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Fetchers: each keeps a private clone in sync while pushes land.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, err := fx.anon.Clone("leshang", "P1", "main")
			if err != nil {
				errCh <- err
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := fx.anon.Fetch(mine, "leshang", "P1", "main", "main"); err != nil {
					errCh <- err
					return
				}
				if _, _, err := fx.anon.GenCite("leshang", "P1", "main", "/CoreCover/rewrite.py"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("concurrent sync: %v", err)
	}

	// Everyone converges on the same tip afterwards.
	repo := mustPlatformRepo(t, fx, "leshang", "P1")
	tip, err := repo.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fx.anon.Clone("leshang", "P1", "main")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.VCS.BranchTip("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != tip {
		t.Errorf("post-churn clone tip %s, server tip %s", got.Short(), tip.Short())
	}
	ids := closureSet(t, fresh.VCS.Objects, got)
	serverIDs := closureSet(t, repo.VCS.Objects, tip)
	if !sameIDSet(ids, serverIDs) {
		t.Error("post-churn closures differ")
	}
}
