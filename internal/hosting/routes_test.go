// Tests that loop over the server's route table: each route kind's policy
// holds for every route of that kind, so a new route cannot skip one.
package hosting_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gitcite/gitcite/internal/hosting"
)

// routesOfKind returns the table's routes of one kind, failing the test
// when there are none (a loop over nothing proves nothing).
func routesOfKind(t *testing.T, kind string) []hosting.Route {
	t.Helper()
	var out []hosting.Route
	for _, rt := range hosting.Routes() {
		if rt.Kind == kind {
			out = append(out, rt)
		}
	}
	if len(out) == 0 {
		t.Fatalf("route table has no %s routes", kind)
	}
	return out
}

// fillPath substitutes the fixture's repository and branch for a route
// pattern's wildcards.
var fillPath = strings.NewReplacer("{owner}", "leshang", "{name}", "P1", "{rev}", "main").Replace

// do sends one request with an optional bearer token and returns the
// status and the decoded error code (empty for non-error bodies).
func do(t *testing.T, base, method, path, token string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body hosting.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Code
}

// TestAdminRoutesAreGated: with no admin token configured every admin
// route answers 403, and with one configured a user token gets 401. Every
// route of the /api/v1/admin group is an admin route, and no other route
// answers an anonymous caller 403.
func TestAdminRoutesAreGated(t *testing.T) {
	fx := newFixture(t) // its server has no admin token
	gated := httptest.NewServer(hosting.NewServer(fx.platform, hosting.WithAdminToken("adm")))
	defer gated.Close()
	for _, rt := range hosting.Routes() {
		path := fillPath(rt.Path)
		if strings.HasPrefix(rt.Path, "/api/v1/admin/") && rt.Kind != "admin" {
			t.Errorf("%s %s is %s; the admin group must be admin", rt.Method, rt.Path, rt.Kind)
		}
		if rt.Kind != "admin" {
			if status, _ := do(t, fx.server.URL, rt.Method, path, ""); status == http.StatusForbidden {
				t.Errorf("%s %s (%s) answers an anonymous caller 403", rt.Method, path, rt.Kind)
			}
			continue
		}
		if status, code := do(t, fx.server.URL, rt.Method, path, fx.ownerTok); status != http.StatusForbidden || code != hosting.CodeForbidden {
			t.Errorf("%s %s without admin token = %d %q, want 403 %s", rt.Method, path, status, code, hosting.CodeForbidden)
		}
		if status, code := do(t, gated.URL, rt.Method, path, fx.ownerTok); status != http.StatusUnauthorized || code != hosting.CodeUnauthorized {
			t.Errorf("%s %s with a user token = %d %q, want 401 %s", rt.Method, path, status, code, hosting.CodeUnauthorized)
		}
	}
}

// TestProbesBypassRateLimit: once the caller's budget is spent, ordinary
// routes answer 429 but the probes keep answering.
func TestProbesBypassRateLimit(t *testing.T) {
	fx := newFixture(t)
	srv := httptest.NewServer(hosting.NewServer(fx.platform, hosting.WithRateLimit(0.0001, 1)))
	defer srv.Close()
	do(t, srv.URL, "GET", "/api/v1/repos/leshang/P1", "") // spends the burst
	if status, _ := do(t, srv.URL, "GET", "/api/v1/repos/leshang/P1", ""); status != http.StatusTooManyRequests {
		t.Fatalf("read after the burst = %d, want 429", status)
	}
	for _, rt := range routesOfKind(t, "probe") {
		for i := 0; i < 3; i++ {
			if status, _ := do(t, srv.URL, rt.Method, rt.Path, ""); status == http.StatusTooManyRequests {
				t.Errorf("%s %s under an exhausted limiter = 429", rt.Method, rt.Path)
			}
		}
	}
}

// TestRouteMethodsMatchKinds: a GET never changes state, so it is never a
// write route. Any other method changes state unless the route is one of
// the named read-only POSTs, so it must be write (redirected on a replica)
// or admin (token-gated).
func TestRouteMethodsMatchKinds(t *testing.T) {
	readOnlyPOSTs := map[string]bool{
		"/api/v1/repos/{owner}/{name}/negotiate": true,
		"/api/v1/repos/{owner}/{name}/objects":   true,
	}
	for _, rt := range hosting.Routes() {
		switch {
		case rt.Method == "GET":
			if rt.Kind == "write" {
				t.Errorf("GET %s is write; a GET route must not change state", rt.Path)
			}
		case rt.Kind == "write" || rt.Kind == "admin":
		case rt.Method == "POST" && readOnlyPOSTs[rt.Path]:
		default:
			t.Errorf("%s %s is %s; a non-GET route must be write or admin", rt.Method, rt.Path, rt.Kind)
		}
	}
}
