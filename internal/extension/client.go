// Package extension is the behavioural equivalent of GitCite's Chrome
// browser extension (paper §3, Figure 2): a client for the hosting
// platform's versioned REST API (/api/v1). Anyone can generate citations
// for any node of a remote repository; project members can additionally
// add, modify and delete citations, which the platform records as new
// commits touching citation.cite. The package also implements the local
// tool's transfer against the platform: Sync (negotiated incremental push)
// and Fetch (negotiated incremental pull) move only the object delta,
// streamed one object per NDJSON line.
package extension

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// apiPrefix is the versioned API root every request goes to.
const apiPrefix = hosting.APIv1Prefix

// fetchBatchSize bounds how many streamed objects accumulate before being
// flushed to the local store in one raw batch write.
const fetchBatchSize = 512

// fetchChunkSize bounds how many object IDs one fetch request names. Large
// negotiated deltas are split into several /objects requests, so no single
// request body carries an entire closure's ID list.
const fetchChunkSize = 2048

// retryAttempts is how many times a request is retried past its first
// attempt when the failure is transient (network error or 5xx).
const retryAttempts = 3

// retryBaseDelay seeds the exponential backoff between attempts; attempt n
// waits a jittered duration in [base·2ⁿ/2, base·2ⁿ].
const retryBaseDelay = 200 * time.Millisecond

// maxRetryAfter caps how long the client honors a server's Retry-After
// advice on 429 — a clock-skewed or hostile value cannot park a caller
// for minutes.
const maxRetryAfter = 30 * time.Second

// Client talks to a hosting server. The zero value is not usable; call New.
type Client struct {
	baseURL string
	token   string
	http    *http.Client
	// ctx, when set (WithContext), scopes every request: cancellation
	// aborts in-flight transfers and backoff sleeps alike. Nil means
	// requests are unscoped, as before.
	ctx context.Context
	// retries/retryBase tune the transient-failure retry policy; New
	// seeds the package defaults, WithRetryPolicy overrides them.
	retries   int
	retryBase time.Duration
	// eps, when set (WithReadEndpoints), routes read calls across replica
	// endpoints with failover back to the primary; shared by pointer across
	// With* copies so the read-your-writes pin survives them (failover.go).
	eps *readEndpoints
}

// New creates a client. token may be empty for anonymous (read-only) use —
// the paper's non-member case. The client is safe for concurrent use; its
// transport keeps enough idle connections per host that parallel callers
// reuse connections instead of churning through new ones (the default
// transport caps idle connections per host at 2). Transient failures —
// network errors and 5xx responses — are retried with bounded exponential
// backoff and jitter; a 429 carrying Retry-After waits the advised
// interval (capped at maxRetryAfter) before retrying; other 4xx responses
// are never retried.
//
// Redirects are not auto-followed: a replica's 307 onto the primary is
// handled explicitly (with the Authorization header re-attached — the
// Location names a trusted topology member, and Go's automatic follow
// would strip credentials across hosts and silently drop the write).
func New(baseURL, token string) *Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 256
	transport.MaxIdleConnsPerHost = 256
	return &Client{
		baseURL: baseURL, token: token,
		http: &http.Client{
			Transport: transport,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
		retries: retryAttempts, retryBase: retryBaseDelay,
	}
}

// WithToken returns a copy of the client authenticated with token.
func (c *Client) WithToken(token string) *Client {
	cp := *c
	cp.token = token
	return &cp
}

// WithContext returns a copy of the client whose requests (and retry
// backoff sleeps) are scoped to ctx — the replication loop's kill switch.
func (c *Client) WithContext(ctx context.Context) *Client {
	cp := *c
	cp.ctx = ctx
	return &cp
}

// WithRetryPolicy returns a copy of the client retrying transient failures
// up to retries extra attempts with the given backoff base. retries 0
// disables retrying; base <= 0 keeps the default.
func (c *Client) WithRetryPolicy(retries int, base time.Duration) *Client {
	cp := *c
	cp.retries = retries
	if base > 0 {
		cp.retryBase = base
	} else {
		cp.retryBase = retryBaseDelay
	}
	return &cp
}

// WithTransport returns a copy of the client whose HTTP requests go
// through rt — the fault-injection and test-instrumentation hook. The
// redirect policy and any configured timeouts are preserved.
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	cp := *c
	hc := *cp.http
	hc.Transport = rt
	cp.http = &hc
	return &cp
}

// APIError is a non-2xx platform response. Code carries the platform's
// stable machine-readable error code ("not_found", "conflict",
// "ambiguous_ref", "rate_limited", …) when the server sent one.
type APIError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("extension: server returned %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("extension: server returned %d: %s", e.Status, e.Message)
}

// IsPermissionDenied reports whether err is the platform refusing a
// non-member write (HTTP 401/403) — the greyed-out buttons of Figure 2.
func IsPermissionDenied(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusUnauthorized || apiErr.Status == http.StatusForbidden
	}
	return false
}

// isBadRequest reports whether err is the platform rejecting the request
// body (HTTP 400) — how an older server reacts to wire fields it predates.
func isBadRequest(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusBadRequest
}

// newRequest builds an authenticated request against the client's base
// server, scoped to the client's context when one was set.
func (c *Client) newRequest(method, path string, body io.Reader) (*http.Request, error) {
	return c.newRequestAbs(method, c.baseURL+path, body)
}

// newRequestAbs is newRequest against a full URL — the manual 307 follow
// and the failover read path address other servers than baseURL.
func (c *Client) newRequestAbs(method, absURL string, body io.Reader) (*http.Request, error) {
	var req *http.Request
	var err error
	if c.ctx != nil {
		req, err = http.NewRequestWithContext(c.ctx, method, absURL, body)
	} else {
		req, err = http.NewRequest(method, absURL, body)
	}
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// send issues the request produced by build, retrying transient failures —
// network errors and 5xx responses — up to the client's retry budget with
// exponential backoff and full-range jitter. build runs once per attempt so
// each retry gets a fresh body (Sync's streamed push rebuilds its pipe).
// Non-transient outcomes (2xx–4xx) return immediately; the final attempt's
// outcome, transient or not, is returned untouched for the caller's normal
// error handling. Context cancellation stops the retry loop at once.
func (c *Client) send(build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err == nil && resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			// Rate-limited with advice: wait exactly what the server asked
			// (capped) instead of the blind backoff schedule.
			if d, ok := retryAfter(resp); ok {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if serr := c.sleepFor(d); serr != nil {
					return nil, serr
				}
				continue
			}
		}
		if err == nil && resp.StatusCode < 500 {
			return resp, nil
		}
		if attempt >= c.retries || (c.ctx != nil && c.ctx.Err() != nil) || errors.Is(err, context.Canceled) {
			return resp, err
		}
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if serr := c.sleepBackoff(attempt); serr != nil {
			if err != nil {
				return nil, err
			}
			return nil, serr
		}
	}
}

// retryAfter extracts a usable Retry-After interval from a 429: the
// delta-seconds form (what the platform emits), capped at maxRetryAfter.
// Absent or unparseable advice reports ok=false — the caller falls back
// to its normal no-retry-on-4xx handling.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// sleepBackoff parks between retry attempts: exponential in the attempt
// number, jittered across the upper half of the window so a fleet of
// clients recovering from one outage does not re-synchronise its retries.
func (c *Client) sleepBackoff(attempt int) error {
	d := c.retryBase << uint(attempt)
	d = d/2 + rand.N(d/2+1)
	return c.sleepFor(d)
}

// sleepFor parks for d, honoring the client's context when one was set.
func (c *Client) sleepFor(d time.Duration) error {
	if c.ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// apiErrorFrom turns a non-2xx response body into an APIError.
func apiErrorFrom(status int, data []byte) *APIError {
	var eresp hosting.ErrorResponse
	msg := string(data)
	code := ""
	if json.Unmarshal(data, &eresp) == nil && eresp.Error != "" {
		msg = eresp.Error
		code = eresp.Code
	}
	return &APIError{Status: status, Code: code, Message: msg}
}

// buildJSON returns a request factory for a JSON-bodied call — safe to run
// once per retry attempt, since the payload is a byte slice re-wrapped in a
// fresh reader each time.
func (c *Client) buildJSON(method, path string, body any) (func() (*http.Request, error), error) {
	return c.buildJSONAbs(method, c.baseURL+path, body)
}

// buildJSONAbs is buildJSON against a full URL.
func (c *Client) buildJSONAbs(method, absURL string, body any) (func() (*http.Request, error), error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	return func() (*http.Request, error) {
		var rd io.Reader
		if data != nil {
			rd = bytes.NewReader(data)
		}
		req, err := c.newRequestAbs(method, absURL, rd)
		if err != nil {
			return nil, err
		}
		if data != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	}, nil
}

func (c *Client) do(method, path string, body, out any) error {
	status, data, _, err := c.call(c.baseURL, method, path, body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return apiErrorFrom(status, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("extension: bad response body: %w", err)
		}
	}
	return nil
}

// call issues one JSON call against base and returns the final status,
// body and headers. A 307 (a replica redirecting a write at its primary)
// is followed exactly once, re-authenticated — the Location names a
// trusted topology member by construction.
func (c *Client) call(base, method, path string, body any) (int, []byte, http.Header, error) {
	build, err := c.buildJSONAbs(method, base+path, body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.send(build)
	if err != nil {
		return 0, nil, nil, err
	}
	if resp.StatusCode == http.StatusTemporaryRedirect {
		loc := resp.Header.Get("Location")
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if loc == "" {
			return 0, nil, nil, errors.New("extension: 307 without Location")
		}
		if build, err = c.buildJSONAbs(method, loc, body); err != nil {
			return 0, nil, nil, err
		}
		if resp, err = c.send(build); err != nil {
			return 0, nil, nil, err
		}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

// doStream issues a request whose response is an NDJSON object stream. The
// caller owns the returned body and must close it.
func (c *Client) doStream(method, path string, body any) (io.ReadCloser, error) {
	build, err := c.buildJSON(method, path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(build)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, apiErrorFrom(resp.StatusCode, data)
	}
	return resp.Body, nil
}

// ---- accounts and repositories ----

// CreateUser registers an account and returns its token.
func (c *Client) CreateUser(name string) (string, error) {
	var resp hosting.UserResponse
	err := c.do("POST", apiPrefix+"/users", hosting.UserRequest{Name: name}, &resp)
	return resp.Token, err
}

// CreateRepo creates a repository owned by the authenticated user.
func (c *Client) CreateRepo(name, url, license string) error {
	return c.do("POST", apiPrefix+"/repos", hosting.RepoRequest{Name: name, URL: url, License: license}, nil)
}

// AddMember grants a user write access (owner only).
func (c *Client) AddMember(owner, repo, member string) error {
	return c.do("POST", fmt.Sprintf("%s/repos/%s/%s/members", apiPrefix, owner, repo),
		hosting.MemberRequest{Member: member}, nil)
}

// GetRepo fetches repository metadata, branches and branch tips.
func (c *Client) GetRepo(owner, repo string) (hosting.RepoResponse, error) {
	var resp hosting.RepoResponse
	err := c.doRead("GET", fmt.Sprintf("%s/repos/%s/%s", apiPrefix, owner, repo), nil, &resp)
	return resp, err
}

// ---- tree listings ----

// TreePage fetches one page of a revision's tree listing. cursor is empty
// for the first page and the previous page's NextCursor afterwards; limit 0
// asks for everything in one page.
func (c *Client) TreePage(owner, repo, rev, cursor string, limit int) (hosting.TreePage, error) {
	path := fmt.Sprintf("%s/repos/%s/%s/tree/%s", apiPrefix, owner, repo, rev)
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page hosting.TreePage
	err := c.doRead("GET", path, nil, &page)
	return page, err
}

// Tree lists all paths of a revision, flagging the explicitly cited ones
// (the popup's solid-blue nodes), following pagination to the end.
func (c *Client) Tree(owner, repo, rev string) ([]hosting.TreeEntryResponse, error) {
	var out []hosting.TreeEntryResponse
	cursor := ""
	for {
		page, err := c.TreePage(owner, repo, rev, cursor, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Entries...)
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// ---- citation reads ----

// GenCite generates the citation for a node — available to everyone,
// exactly like the popup's "Generate Citation" button.
func (c *Client) GenCite(owner, repo, rev, path string) (core.Citation, string, error) {
	var resp hosting.CiteResponse
	err := c.doRead("GET", fmt.Sprintf("%s/repos/%s/%s/cite/%s?path=%s", apiPrefix, owner, repo, rev, url.QueryEscape(path)), nil, &resp)
	if err != nil {
		return core.Citation{}, "", err
	}
	cite, err := citefile.DecodeEntry(resp.Citation)
	return cite, resp.From, err
}

// Chain generates the whole-path citation chain for a node (the paper's
// alternative semantics) — available to everyone, like GenCite.
func (c *Client) Chain(owner, repo, rev, path string) ([]core.PathCitation, error) {
	var resp hosting.ChainResponse
	err := c.doRead("GET", fmt.Sprintf("%s/repos/%s/%s/chain/%s?path=%s", apiPrefix, owner, repo, rev, url.QueryEscape(path)), nil, &resp)
	if err != nil {
		return nil, err
	}
	out := make([]core.PathCitation, 0, len(resp.Chain))
	for _, link := range resp.Chain {
		cite, err := citefile.DecodeEntry(link.Citation)
		if err != nil {
			return nil, err
		}
		out = append(out, core.PathCitation{Path: link.Path, Citation: cite})
	}
	return out, nil
}

// GenCiteRendered generates and renders a citation in one round trip.
func (c *Client) GenCiteRendered(owner, repo, rev, path, formatName string) (string, error) {
	var resp hosting.CiteResponse
	err := c.doRead("GET", fmt.Sprintf("%s/repos/%s/%s/cite/%s?path=%s&format=%s", apiPrefix, owner, repo, rev, url.QueryEscape(path), url.QueryEscape(formatName)), nil, &resp)
	return resp.Rendered, err
}

// ---- citation edits ----

// AddCite attaches a citation remotely (member only).
func (c *Client) AddCite(owner, repo, branch, path string, cite core.Citation) (string, error) {
	return c.editCite("POST", owner, repo, branch, path, &cite)
}

// ModifyCite replaces a citation remotely (member only).
func (c *Client) ModifyCite(owner, repo, branch, path string, cite core.Citation) (string, error) {
	return c.editCite("PUT", owner, repo, branch, path, &cite)
}

// DelCite removes a citation remotely (member only).
func (c *Client) DelCite(owner, repo, branch, path string) (string, error) {
	return c.editCite("DELETE", owner, repo, branch, path, nil)
}

func (c *Client) editCite(method, owner, repo, branch, path string, cite *core.Citation) (string, error) {
	req := hosting.EditCiteRequest{Branch: branch, Path: path}
	if cite != nil {
		raw, err := citefile.EncodeEntry(*cite)
		if err != nil {
			return "", err
		}
		req.Citation = raw
	}
	var resp hosting.EditCiteResponse
	if err := c.do(method, fmt.Sprintf("%s/repos/%s/%s/cite", apiPrefix, owner, repo), req, &resp); err != nil {
		return "", err
	}
	return resp.Commit, nil
}

// Credit fetches the credit report for a revision: per-author file counts
// and per-entry coverage.
func (c *Client) Credit(owner, repo, rev string) (hosting.CreditResponse, error) {
	var resp hosting.CreditResponse
	err := c.doRead("GET", fmt.Sprintf("%s/repos/%s/%s/credit/%s", apiPrefix, owner, repo, rev), nil, &resp)
	return resp, err
}

// CiteFile downloads a revision's raw citation.cite.
func (c *Client) CiteFile(owner, repo, rev string) ([]byte, error) {
	data, _, _, err := c.CiteFileIfChanged(owner, repo, rev, "")
	return data, err
}

// CiteFileIfChanged is CiteFile with conditional-GET support: pass the ETag
// of a previous download and the server answers 304 (notModified=true, nil
// data) when the revision still resolves to the same immutable commit —
// zero citation work server-side, near-zero bytes on the wire.
func (c *Client) CiteFileIfChanged(owner, repo, rev, etag string) (data []byte, newETag string, notModified bool, err error) {
	resp, err := c.send(func() (*http.Request, error) {
		req, err := c.newRequest("GET", fmt.Sprintf("%s/repos/%s/%s/citefile/%s", apiPrefix, owner, repo, rev), nil)
		if err != nil {
			return nil, err
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req, nil
	})
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return nil, resp.Header.Get("ETag"), true, nil
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", false, apiErrorFrom(resp.StatusCode, data)
	}
	return data, resp.Header.Get("ETag"), false, nil
}

// Fork forks owner/repo under the authenticated user's account.
func (c *Client) Fork(owner, repo, newName string) (hosting.RepoResponse, error) {
	var resp hosting.RepoResponse
	err := c.do("POST", fmt.Sprintf("%s/repos/%s/%s/fork", apiPrefix, owner, repo), hosting.ForkRequest{NewName: newName}, &resp)
	return resp, err
}

// ---- replication feed (admin-token gated server-side) ----

// Events polls the primary's replication feed for everything after the
// since cursor, parking server-side up to waitSeconds when the follower is
// current (0 = return immediately). A Reset response means the cursor
// cannot be served — full-resync from ReplicaSnapshot instead.
func (c *Client) Events(since int64, waitSeconds int) (hosting.EventsResponse, error) {
	return c.EventsAs("", since, waitSeconds)
}

// EventsAs is Events with a follower identity: the primary records the
// poll as followerID's acknowledged cursor, sizing ring retention to the
// slowest live follower and feeding the admin fleet status.
func (c *Client) EventsAs(followerID string, since int64, waitSeconds int) (hosting.EventsResponse, error) {
	path := fmt.Sprintf("%s/events?since=%d&wait=%d", apiPrefix, since, waitSeconds)
	if followerID != "" {
		path += "&id=" + url.QueryEscape(followerID)
	}
	var resp hosting.EventsResponse
	err := c.do("GET", path, nil, &resp)
	return resp, err
}

// ReplicaSnapshot downloads the primary's replication bootstrap: every
// account (with token), repository, membership and branch tip, plus the
// event cursor to resume polling from.
func (c *Client) ReplicaSnapshot() (hosting.SnapshotResponse, error) {
	var resp hosting.SnapshotResponse
	err := c.do("GET", apiPrefix+"/replica/snapshot", nil, &resp)
	return resp, err
}

// ---- negotiated incremental transfer ----

// localTips collects the commit IDs of every local branch, in hex — the
// have-set a negotiate declares.
func localTips(local *gitcite.Repo) ([]string, error) {
	branches, err := local.VCS.Branches()
	if err != nil {
		return nil, err
	}
	hexes := make([]string, 0, len(branches))
	for _, b := range branches {
		tip, err := local.VCS.BranchTip(b)
		if err != nil {
			return nil, err
		}
		hexes = append(hexes, tip.String())
	}
	return hexes, nil
}

// Sync uploads a local branch incrementally: the remote branch tips (from
// repository metadata) seed the same frontier walk the server uses for
// pulls, so only objects the server is missing travel — one NDJSON line
// each, never a whole-closure buffer. It returns the number of objects
// uploaded (0 when the server is already up to date; the ref still
// advances). This is the local tool's "push the local copy (which contains
// citation.cite) to the remote repository" step.
func (c *Client) Sync(local *gitcite.Repo, owner, repo, branch string) (int, error) {
	tip, err := local.VCS.BranchTip(branch)
	if err != nil {
		return 0, err
	}
	// The have-set must come from where the push will land: a replica's
	// (possibly stale) tips would only inflate the delta, but asking the
	// primary keeps the negotiate and the push against one history.
	meta, err := c.forPrimary().GetRepo(owner, repo)
	if err != nil {
		return 0, err
	}
	have := make([]object.ID, 0, len(meta.Tips))
	for _, h := range meta.Tips {
		if id, err := object.ParseID(h); err == nil {
			have = append(have, id)
		}
	}
	missing, err := hosting.MissingObjects(local.VCS.Objects, tip, have)
	if err != nil {
		return 0, err
	}

	// The push body is a live pipe out of the local store, so a retry
	// cannot replay it — each attempt builds a fresh pipe and re-streams
	// the (immutable) objects. A replayed push that already landed is
	// absorbed server-side: the tip matches, fast-forward passes, the
	// batch write is idempotent.
	buildAt := func(pushURL string) func() (*http.Request, error) {
		return func() (*http.Request, error) {
			pr, pw := io.Pipe()
			go func() {
				sw := hosting.NewObjectStreamWriter(pw)
				err := sw.WriteValue(hosting.PushHeader{Branch: branch, Tip: tip.String()})
				for _, id := range missing {
					if err != nil {
						break
					}
					var o object.Object
					if o, err = local.VCS.Objects.Get(id); err == nil {
						err = sw.WriteObject(o)
					}
				}
				if err == nil {
					err = sw.Flush()
				}
				pw.CloseWithError(err)
			}()
			req, err := c.newRequestAbs("POST", pushURL, pr)
			if err != nil {
				pr.CloseWithError(err)
				return nil, err
			}
			req.Header.Set("Content-Type", hosting.MediaTypeNDJSON)
			return req, nil
		}
	}
	resp, err := c.send(buildAt(c.baseURL + fmt.Sprintf("%s/repos/%s/%s/push", apiPrefix, owner, repo)))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusTemporaryRedirect {
		// Pushed at a replica: follow its 307 onto the primary once, with
		// a fresh pipe (the redirected request needs a whole new body).
		loc := resp.Header.Get("Location")
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if loc == "" {
			return 0, errors.New("extension: push redirected without Location")
		}
		if resp, err = c.send(buildAt(loc)); err != nil {
			return 0, err
		}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return 0, apiErrorFrom(resp.StatusCode, data)
	}
	var pushResp hosting.PushResponse
	if err := json.Unmarshal(data, &pushResp); err != nil {
		return 0, fmt.Errorf("extension: bad push response: %w", err)
	}
	// Read-your-writes: pin reads to the primary until some replica's
	// acknowledged cursor passes this push's feed position.
	if c.eps != nil {
		c.eps.notePush(pushResp.Seq, pushResp.Epoch)
	}
	return pushResp.Stored, nil
}

// storeStreamedObjects drains an NDJSON object stream into the local
// store in raw batches and returns how many objects arrived. The ID of
// every object is recomputed locally from the received bytes, so the
// raw-batch trust contract holds regardless of what the server claims to
// have sent.
func storeStreamedObjects(local *gitcite.Repo, sr *hosting.ObjectStreamReader) (int, error) {
	n := 0
	batch := make([]store.Encoded, 0, fetchBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := local.VCS.Objects.PutManyEncoded(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for {
		_, enc, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		batch = append(batch, store.Encoded{ID: object.HashBytes(enc), Enc: enc})
		n++
		if len(batch) == fetchBatchSize {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	return n, flush()
}

// fetchObjectChunk downloads one chunk of negotiated object IDs into the
// local store.
func (c *Client) fetchObjectChunk(local *gitcite.Repo, owner, repo string, ids []string) (int, error) {
	body, err := c.doStream("POST", fmt.Sprintf("%s/repos/%s/%s/objects", apiPrefix, owner, repo),
		hosting.FetchRequest{IDs: ids})
	if err != nil {
		return 0, err
	}
	defer body.Close()
	n, err := storeStreamedObjects(local, hosting.NewObjectStreamReader(body))
	if err != nil {
		return n, err
	}
	if n != len(ids) {
		return n, fmt.Errorf("extension: server sent %d of %d requested objects", n, len(ids))
	}
	return n, nil
}

// fetchAll streams a revision's full closure from the pull endpoint into
// the local store — the transfer half of a want-all negotiate, used when
// the client has nothing: no per-object ID list travels in either
// direction.
func (c *Client) fetchAll(local *gitcite.Repo, owner, repo string, tip object.ID) (int, error) {
	body, err := c.doStream("GET", fmt.Sprintf("%s/repos/%s/%s/pull/%s", apiPrefix, owner, repo, tip.String()), nil)
	if err != nil {
		return 0, err
	}
	defer body.Close()
	sr := hosting.NewObjectStreamReader(body)
	var hdr hosting.PullHeader
	if err := sr.ReadHeader(&hdr); err != nil {
		return 0, err
	}
	if hdr.Tip != tip.String() {
		return 0, fmt.Errorf("extension: pull stream tip %s, want %s", hdr.Tip, tip.Short())
	}
	return storeStreamedObjects(local, sr)
}

// Fetch downloads a remote revision incrementally into the local
// repository: it negotiates with the local branch tips as the have-set,
// streams exactly the missing objects, stores them in raw batches, and
// points localBranch (if non-empty) at the tip. It returns the tip and the
// number of objects transferred — proportional to the delta, not the
// repository.
//
// A client with no local tips (a cold clone) negotiates in want-all mode
// and streams the closure from the pull endpoint, so no per-object ID list
// travels in either direction; incremental deltas larger than
// fetchChunkSize are fetched in several chunked requests.
func (c *Client) Fetch(local *gitcite.Repo, owner, repo, rev, localBranch string) (object.ID, int, error) {
	haveHex, err := localTips(local)
	if err != nil {
		return object.ZeroID, 0, err
	}
	mode := ""
	if len(haveHex) == 0 {
		mode = hosting.NegotiateModeWantAll
	}
	negotiatePath := fmt.Sprintf("%s/repos/%s/%s/negotiate", apiPrefix, owner, repo)
	var neg hosting.NegotiateResponse
	err = c.do("POST", negotiatePath, hosting.NegotiateRequest{Want: rev, Have: haveHex, Mode: mode}, &neg)
	if mode != "" && isBadRequest(err) {
		// A server predating the want-all mode rejects the unknown "mode"
		// field (strict body decoding). Fall back to a plain negotiate so
		// cold clones keep working across the version skew.
		err = c.do("POST", negotiatePath, hosting.NegotiateRequest{Want: rev, Have: haveHex}, &neg)
	}
	if err != nil {
		return object.ZeroID, 0, err
	}
	tip, err := object.ParseID(neg.Tip)
	if err != nil {
		return object.ZeroID, 0, fmt.Errorf("extension: bad negotiate tip: %w", err)
	}
	n := 0
	switch {
	case neg.All && neg.Count > 0:
		if n, err = c.fetchAll(local, owner, repo, tip); err != nil {
			return object.ZeroID, 0, err
		}
		if n < neg.Count {
			return object.ZeroID, 0, fmt.Errorf("extension: server sent %d of %d negotiated objects", n, neg.Count)
		}
	case len(neg.Missing) > 0:
		for start := 0; start < len(neg.Missing); start += fetchChunkSize {
			chunk := neg.Missing[start:min(start+fetchChunkSize, len(neg.Missing))]
			got, err := c.fetchObjectChunk(local, owner, repo, chunk)
			if err != nil {
				return object.ZeroID, 0, err
			}
			n += got
		}
	}
	if localBranch != "" {
		if err := local.VCS.Refs.Set(refs.BranchRef(localBranch), tip); err != nil {
			return object.ZeroID, 0, err
		}
	}
	return tip, n, nil
}

// Clone creates a fresh local citation-enabled repository tracking a remote
// branch.
func (c *Client) Clone(owner, repo, rev string) (*gitcite.Repo, error) {
	meta, err := c.GetRepo(owner, repo)
	if err != nil {
		return nil, err
	}
	local, err := gitcite.NewMemoryRepo(gitcite.Meta{
		Owner: meta.Owner, Name: meta.Name, URL: meta.URL, License: meta.License,
	})
	if err != nil {
		return nil, err
	}
	if _, _, err := c.Fetch(local, owner, repo, rev, rev); err != nil {
		return nil, err
	}
	if err := local.VCS.Checkout(rev); err != nil {
		return nil, err
	}
	return local, nil
}
