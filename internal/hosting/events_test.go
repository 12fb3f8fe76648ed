// Tests for the replication surface on the primary side — the events feed
// (ordering, cursors, long-poll wake-up, reset signalling), the snapshot
// bootstrap, the admin gating of both, and the read-only replica serving
// mode (307 + replica_read_only on every write route of the route table).
package hosting_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/hosting"
)

// eventsFixture is a platform with an admin token, one user, one pushed
// repository — the smallest state that exercises every event type.
type eventsFixture struct {
	platform *hosting.Platform
	server   *httptest.Server
	admin    *extension.Client
	ownerTok string
}

func newEventsFixture(t *testing.T) *eventsFixture {
	t.Helper()
	p := hosting.NewPlatform()
	srv := hosting.NewServer(p, hosting.WithAdminToken("adm-tok"))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	anon := extension.New(ts.URL, "")
	tok, err := anon.CreateUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	owner := anon.WithToken(tok)
	if err := owner.CreateRepo("r1", "https://x/r1", "MIT"); err != nil {
		t.Fatal(err)
	}
	local, _ := buildNFileRepo(t, 20)
	if _, err := owner.Sync(local, "alice", "r1", "main"); err != nil {
		t.Fatal(err)
	}
	return &eventsFixture{platform: p, server: ts, admin: anon.WithToken("adm-tok"), ownerTok: tok}
}

func TestEventsFeedOrderAndCursor(t *testing.T) {
	fx := newEventsFixture(t)
	resp, err := fx.admin.Events(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reset {
		t.Fatal("cursor 0 came back Reset")
	}
	if resp.Epoch == "" {
		t.Error("empty epoch")
	}
	var types []string
	last := int64(0)
	for _, ev := range resp.Events {
		if ev.Seq <= last {
			t.Errorf("seq %d after %d: not strictly increasing", ev.Seq, last)
		}
		last = ev.Seq
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, ",")
	// user created, repo created, branch pushed — in mutation order.
	if want := "user,repo,ref"; joined != want {
		t.Errorf("event types = %q, want %q", joined, want)
	}
	if resp.Head != last {
		t.Errorf("head %d, last seq %d", resp.Head, last)
	}
	u := resp.Events[0]
	if u.Name != "alice" || u.Token != fx.ownerTok {
		t.Errorf("user event = %+v, want alice with the issued token", u)
	}
	ref := resp.Events[2]
	if ref.Owner != "alice" || ref.Repo != "r1" || ref.Branch != "main" || len(ref.Tip) != 64 {
		t.Errorf("ref event = %+v", ref)
	}

	// Polling from the head is empty, not Reset.
	caught, err := fx.admin.Events(resp.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	if caught.Reset || len(caught.Events) != 0 {
		t.Errorf("at-head poll = %+v", caught)
	}
	// A cursor past the head (journal reset / foreign history) is Reset —
	// the full-resync signal, never an error.
	ahead, err := fx.admin.Events(resp.Head+100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ahead.Reset {
		t.Error("cursor past head did not signal Reset")
	}
}

func TestEventsLongPollWakesOnPublish(t *testing.T) {
	fx := newEventsFixture(t)
	head, err := fx.admin.Events(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp hosting.EventsResponse
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := fx.admin.Events(head.Head, 30)
		got <- result{resp, err}
	}()
	// Publish after the poller has (very likely) parked.
	time.Sleep(50 * time.Millisecond)
	anon := extension.New(fx.server.URL, fx.ownerTok)
	local, _ := buildNFileRepo(t, 5)
	if err := anon.CreateRepo("r2", "https://x/r2", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.Sync(local, "alice", "r2", "main"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.resp.Events) == 0 {
			t.Error("long poll returned empty after publish")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll did not wake on publish")
	}
}

func TestEventsAndSnapshotAreAdminGated(t *testing.T) {
	fx := newEventsFixture(t)
	for _, path := range []string{"/api/v1/events", "/api/v1/replica/snapshot"} {
		resp, err := http.Get(fx.server.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s without admin token = %d, want 401", path, resp.StatusCode)
		}
	}
	// A platform with no admin token configured disables the group entirely.
	bare := httptest.NewServer(hosting.NewServer(hosting.NewPlatform()))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/api/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("events with admin group disabled = %d, want 403", resp.StatusCode)
	}
}

func TestSnapshotCoversUsersReposAndTips(t *testing.T) {
	fx := newEventsFixture(t)
	snap, err := fx.admin.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch == "" || snap.Cursor <= 0 {
		t.Errorf("snapshot epoch=%q cursor=%d", snap.Epoch, snap.Cursor)
	}
	foundUser := false
	for _, u := range snap.Users {
		if u.Name == "alice" && u.Token == fx.ownerTok {
			foundUser = true
		}
	}
	if !foundUser {
		t.Error("snapshot missing user alice (with token)")
	}
	if len(snap.Repos) != 1 {
		t.Fatalf("snapshot has %d repos, want 1", len(snap.Repos))
	}
	sr := snap.Repos[0]
	if sr.Owner != "alice" || sr.Name != "r1" || sr.URL != "https://x/r1" || sr.License != "MIT" {
		t.Errorf("snapshot repo = %+v", sr)
	}
	if len(sr.Members) == 0 {
		t.Error("snapshot repo has no members (owner should be one)")
	}
	tip, ok := sr.Tips["main"]
	if !ok || len(tip) != 64 {
		t.Errorf("snapshot tips = %v, want main → full commit hex", sr.Tips)
	}
}

func TestReplicaModeRedirectsWrites(t *testing.T) {
	// Populate a platform normally, then serve the same platform read-only.
	fx := newFixture(t)
	// The primary is a local listener that no request may reach: a read
	// route misdeclared as a write fails here, without leaving the host.
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("request reached the primary: %s %s", r.Method, r.URL)
		http.Error(w, "primary", http.StatusInternalServerError)
	}))
	defer primary.Close()
	replicaSrv := httptest.NewServer(hosting.NewServer(fx.platform,
		hosting.WithReplicaMode(primary.URL+"/", nil)))
	defer replicaSrv.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, rt := range routesOfKind(t, "write") {
		path := fillPath(rt.Path)
		req, err := http.NewRequest(rt.Method, replicaSrv.URL+path+"?q=1", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body hosting.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Errorf("%s %s = %d, want 307", rt.Method, path, resp.StatusCode)
			continue
		}
		if err != nil || body.Code != hosting.CodeReplicaReadOnly {
			t.Errorf("%s %s code = %q (%v), want %s", rt.Method, path, body.Code, err, hosting.CodeReplicaReadOnly)
		}
		want := primary.URL + path + "?q=1"
		if loc := resp.Header.Get("Location"); loc != want {
			t.Errorf("%s %s Location = %q, want %q", rt.Method, path, loc, want)
		}
	}

	// Every other route is served by the replica itself.
	for _, rt := range hosting.Routes() {
		if rt.Kind == "write" {
			continue
		}
		path := fillPath(rt.Path)
		req, err := http.NewRequest(rt.Method, replicaSrv.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTemporaryRedirect {
			t.Errorf("%s %s (%s) redirected on a replica", rt.Method, path, rt.Kind)
		}
	}

	// The read surface still answers locally.
	anon := extension.New(replicaSrv.URL, "")
	if _, _, err := anon.GenCite("leshang", "P1", "main", "/src/main.py"); err != nil {
		t.Errorf("GenCite on replica: %v", err)
	}
	if _, err := anon.Tree("leshang", "P1", "main"); err != nil {
		t.Errorf("Tree on replica: %v", err)
	}
	if _, err := anon.Clone("leshang", "P1", "main"); err != nil {
		t.Errorf("Clone (negotiate+pull) on replica: %v", err)
	}
}

func TestAdminStatusReportsReplica(t *testing.T) {
	p := hosting.NewPlatform()
	statusFn := func() hosting.ReplicaStatus {
		return hosting.ReplicaStatus{
			Primary: "http://primary.example", Epoch: "abc", Cursor: 41, Head: 44, Lag: 3,
			Repos: map[string]hosting.ReplicaRepoStatus{
				"alice/r1": {AppliedSeq: 41, PendingSeq: 44, Branch: "main"},
			},
		}
	}
	srv := httptest.NewServer(hosting.NewServer(p,
		hosting.WithAdminToken("adm"),
		hosting.WithReplicaMode("http://primary.example", statusFn)))
	defer srv.Close()
	req, err := http.NewRequest("GET", srv.URL+"/api/v1/admin/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer adm")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var status hosting.AdminStatusResponse
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("admin status: %d, %v", resp.StatusCode, err)
	}
	if status.Replica == nil {
		t.Fatal("admin status missing replica section")
	}
	if status.Replica.Primary != "http://primary.example" || status.Replica.Lag != 3 {
		t.Errorf("replica status = %+v", status.Replica)
	}
	rs, ok := status.Replica.Repos["alice/r1"]
	if !ok || rs.PendingSeq-rs.AppliedSeq != 3 {
		t.Errorf("per-repo replica status = %+v", status.Replica.Repos)
	}

	// A primary (no replica mode) omits the section.
	plain := httptest.NewServer(hosting.NewServer(hosting.NewPlatform(), hosting.WithAdminToken("adm")))
	defer plain.Close()
	req, _ = http.NewRequest("GET", plain.URL+"/api/v1/admin/status", nil)
	req.Header.Set("Authorization", "Bearer adm")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := raw["replica"]; present {
		t.Error("primary admin status carries a replica section")
	}
}
