package hosting

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/format"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/report"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// Server exposes a Platform over HTTP — the REST API the paper's browser
// extension uses ("The extension communicates with the GitHub servers using
// its REST API"). The surface is versioned under /api/v1 and declared in
// one table (routes.go), whose kinds decide each route's replica, admin and
// rate-limit policy. Requests flow through the middleware chain (logging →
// CORS → rate limit → auth) before reaching the router.
type Server struct {
	platform *Platform
	handler  http.Handler
	// Now supplies commit timestamps for server-side citation edits;
	// overridable for deterministic tests and experiments.
	Now func() time.Time

	corsOrigin string
	limiter    *rateLimiter
	logger     interface{ Printf(string, ...any) }
	adminToken string

	// Replica serving mode (readonly.go): a non-nil replica pointer makes
	// every write route answer 307 → primary and stamps replica headers on
	// responses. It is atomic because promotion flips it to nil while
	// requests are in flight — each request loads it exactly once.
	replica atomic.Pointer[replicaState]
	// promote, when set (WithPromotion), backs POST /api/v1/admin/promote.
	promote PromoteFunc
	// readyMaxLag is the replication lag ceiling for GET /readyz.
	readyMaxLag int64
}

// NewServer wraps a platform with the REST API. Options configure the
// middleware chain (CORS origin, rate limiting, request logging). One loop
// registers the route table: write routes go through mutating, admin routes
// through adminOnly, and probe paths bypass the rate limiter.
func NewServer(p *Platform, opts ...ServerOption) *Server {
	s := &Server{platform: p, Now: time.Now, corsOrigin: "*"}
	for _, o := range opts {
		o(s)
	}
	mux := http.NewServeMux()
	var probes []string
	for _, rt := range s.routes() {
		h := rt.handler
		switch rt.kind {
		case kindWrite:
			h = s.mutating(h)
		case kindAdmin:
			h = s.adminOnly(h)
		case kindProbe:
			_, path, _ := strings.Cut(rt.pattern, " ")
			probes = append(probes, path)
		}
		mux.HandleFunc(rt.pattern, h)
	}
	var h http.Handler = mux
	h = s.withReplicaHeaders(h)
	h = s.withAuth(h)
	h = s.withRateLimit(h, probes)
	h = s.withCORS(h)
	h = s.withLogging(h)
	s.handler = h
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// ---- wire types ----

// UserRequest / UserResponse: account creation.
type UserRequest struct {
	Name string `json:"name"`
}

// UserResponse returns the new account's token.
type UserResponse struct {
	Name  string `json:"name"`
	Token string `json:"token"`
}

// RepoRequest creates a repository for the authenticated user.
type RepoRequest struct {
	Name    string `json:"name"`
	URL     string `json:"url,omitempty"`
	License string `json:"license,omitempty"`
}

// RepoResponse describes a repository. Tips maps each branch to its current
// commit ID — the have-set seed for negotiated pushes.
type RepoResponse struct {
	Owner    string            `json:"owner"`
	Name     string            `json:"name"`
	URL      string            `json:"url,omitempty"`
	License  string            `json:"license,omitempty"`
	Branches []string          `json:"branches"`
	Tips     map[string]string `json:"tips,omitempty"`
}

// MemberRequest grants write access.
type MemberRequest struct {
	Member string `json:"member"`
}

// TreeEntryResponse is one row of a tree listing.
type TreeEntryResponse struct {
	Path  string `json:"path"`
	IsDir bool   `json:"isDir"`
	Cited bool   `json:"cited"` // has an explicit citation (solid blue circle)
}

// TreePage is one page of a v1 tree listing. NextCursor is empty on the
// last page; otherwise pass it back verbatim to continue. Cursors are
// stable because the listed tree is addressed by an immutable commit.
type TreePage struct {
	Entries    []TreeEntryResponse `json:"entries"`
	NextCursor string              `json:"nextCursor,omitempty"`
}

// CiteResponse is a generated citation.
type CiteResponse struct {
	Path     string          `json:"path"`
	From     string          `json:"from"` // active-domain path that supplied it
	Citation json.RawMessage `json:"citation"`
	Rendered string          `json:"rendered,omitempty"`
}

// ChainResponse is the whole-path alternative semantics.
type ChainResponse struct {
	Path  string         `json:"path"`
	Chain []CiteResponse `json:"chain"`
}

// EditCiteRequest adds/modifies/deletes a citation entry on a branch; the
// platform commits the updated citation.cite server-side.
type EditCiteRequest struct {
	Branch   string          `json:"branch"`
	Path     string          `json:"path"`
	Citation json.RawMessage `json:"citation,omitempty"` // absent for DELETE
	Message  string          `json:"message,omitempty"`
}

// EditCiteResponse reports the commit recording the edit.
type EditCiteResponse struct {
	Commit string `json:"commit"`
}

// ForkRequest forks a repository under the authenticated user.
type ForkRequest struct {
	NewName string `json:"newName,omitempty"`
}

// PushResponse reports how many objects the server stored. Seq and Epoch
// locate the acknowledging ref event on the replication feed, so a
// failover-aware client can hold reads to the primary until a replica's
// acknowledged cursor passes Seq (read-your-writes).
type PushResponse struct {
	Stored int    `json:"stored"`
	Tip    string `json:"tip"`
	Seq    int64  `json:"seq,omitempty"`
	Epoch  string `json:"epoch,omitempty"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errStatus maps an error to its HTTP status and stable wire code.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized, CodeUnauthorized
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden, CodeForbidden
	case errors.Is(err, ErrAmbiguousRev):
		return http.StatusConflict, CodeAmbiguousRef
	case errors.Is(err, ErrNotFound), errors.Is(err, vcs.ErrNoCommits), errors.Is(err, refs.ErrNotFound),
		errors.Is(err, core.ErrNoEntry), errors.Is(err, store.ErrNotFound),
		errors.Is(err, gitcite.ErrNotCitationEnabled):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrNotCaughtUp):
		return http.StatusConflict, CodeNotCaughtUp
	case errors.Is(err, ErrConflict), errors.Is(err, core.ErrEntryExists):
		return http.StatusConflict, CodeConflict
	case errors.Is(err, vcs.ErrBadPath), errors.Is(err, core.ErrPathNotInTree),
		errors.Is(err, core.ErrEmptyCitation), errors.Is(err, core.ErrIncompleteCitation),
		errors.Is(err, core.ErrRootRequired), errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest
	}
	return http.StatusInternalServerError, CodeInternal
}

func writeErr(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeJSON(w, status, ErrorResponse{Code: code, Error: err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: body: %v", ErrBadRequest, err)
	}
	return nil
}

// isHexPrefix reports whether rev could abbreviate a commit ID.
func isHexPrefix(rev string) bool {
	if len(rev) < 4 || len(rev) >= object.IDSize*2 {
		return false
	}
	for _, c := range rev {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// resolveRev maps a branch name, full commit hex, or unambiguous commit-ID
// prefix (≥ 4 hex chars) to a commit ID. Branches shadow prefixes; an
// ambiguous prefix reports ErrAmbiguousRev. Prefixes resolve through the
// store's ordered ID index (vcs.ResolveCommitPrefix) — O(log n) per
// lookup, never a full IDs() enumeration.
func resolveRev(repo *gitcite.Repo, rev string) (object.ID, error) {
	if id, err := object.ParseID(rev); err == nil {
		if _, err := repo.VCS.Commit(id); err != nil {
			return object.ZeroID, fmt.Errorf("%w: commit %s", ErrNotFound, rev)
		}
		return id, nil
	}
	if id, err := repo.VCS.BranchTip(rev); err == nil {
		return id, nil
	}
	if isHexPrefix(rev) {
		id, err := repo.VCS.ResolveCommitPrefix(rev)
		if err == nil {
			return id, nil
		}
		if errors.Is(err, vcs.ErrAmbiguousPrefix) {
			return object.ZeroID, fmt.Errorf("%w: %v", ErrAmbiguousRev, err)
		}
		if !errors.Is(err, store.ErrNotFound) {
			return object.ZeroID, err
		}
	}
	return object.ZeroID, fmt.Errorf("%w: revision %q", ErrNotFound, rev)
}

// ---- immutable-read caching ----

func etagFor(id object.ID) string { return `"` + id.String() + `"` }

// etagMatch implements If-None-Match against a strong ETag (weak
// comparison: a W/ prefix on the candidate still matches).
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// revAddressesCommit reports whether the request named the commit by (a
// prefix of) its content hash — an immutable address, cacheable forever —
// rather than by a movable branch name.
func revAddressesCommit(rev string, commit object.ID) bool {
	return len(rev) >= 4 && strings.HasPrefix(commit.String(), strings.ToLower(rev))
}

// beginCommitRead resolves {owner}/{name}/{rev}, stamps the caching headers
// (ETag = the commit's content hash; immutable Cache-Control when the rev
// itself was commit-addressed) and short-circuits If-None-Match
// revalidations with a 304 before any citation-resolution work happens.
// The repository comes back pinned open: the handler must defer release so
// LRU eviction cannot close it mid-response. When it returns ok=false the
// response has already been written and there is nothing to release.
func (s *Server) beginCommitRead(w http.ResponseWriter, r *http.Request) (*gitcite.Repo, object.ID, func(), bool) {
	repo, release, err := s.platform.AcquireRepo(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return nil, object.ZeroID, nil, false
	}
	rev := r.PathValue("rev")
	commit, err := resolveRev(repo, rev)
	if err != nil {
		release()
		writeErr(w, err)
		return nil, object.ZeroID, nil, false
	}
	et := etagFor(commit)
	h := w.Header()
	h.Set("ETag", et)
	if revAddressesCommit(rev, commit) {
		// Commit IDs are content hashes: the representation can never
		// change, so clients and shared caches may keep it forever.
		h.Set("Cache-Control", "public, max-age=31536000, immutable")
	} else {
		// Branch-addressed: revalidate each time (the 304 below is cheap).
		h.Set("Cache-Control", "no-cache")
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, et) {
		release()
		w.WriteHeader(http.StatusNotModified)
		return nil, object.ZeroID, nil, false
	}
	return repo, commit, release, true
}

// ---- account / repository handlers ----

func (s *Server) handleCreateUser(w http.ResponseWriter, r *http.Request) {
	var req UserRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	u, err := s.platform.CreateUser(r.Context(), req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, UserResponse{Name: u.Name, Token: u.Token})
}

func (s *Server) handleCreateRepo(w http.ResponseWriter, r *http.Request) {
	var req RepoRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	repo, err := s.platform.CreateRepoAs(r.Context(), userFrom(r.Context()), req.Name, req.URL, req.License)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, RepoResponse{
		Owner: repo.Meta.Owner, Name: repo.Meta.Name, URL: repo.Meta.URL, License: repo.Meta.License,
		Branches: []string{},
	})
}

// repoResponse assembles repository metadata with branch tips.
func repoResponse(repo *gitcite.Repo) (RepoResponse, error) {
	branches, err := repo.VCS.Branches()
	if err != nil {
		return RepoResponse{}, err
	}
	if branches == nil {
		branches = []string{}
	}
	tips := make(map[string]string, len(branches))
	for _, b := range branches {
		tip, err := repo.VCS.BranchTip(b)
		if err != nil {
			return RepoResponse{}, err
		}
		tips[b] = tip.String()
	}
	return RepoResponse{
		Owner: repo.Meta.Owner, Name: repo.Meta.Name, URL: repo.Meta.URL,
		License: repo.Meta.License, Branches: branches, Tips: tips,
	}, nil
}

func (s *Server) handleGetRepo(w http.ResponseWriter, r *http.Request) {
	repo, release, err := s.platform.AcquireRepo(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	resp, err := repoResponse(repo)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAddMember(w http.ResponseWriter, r *http.Request) {
	var req MemberRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	err := s.platform.AddMemberAs(r.Context(), userFrom(r.Context()), r.PathValue("owner"), r.PathValue("name"), req.Member)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// ---- tree listing ----

// treeEntries lists the commit's paths with citation flags, skipping offset
// rows and stopping after limit (limit <= 0 lists everything). The walk
// terminates as soon as the page is full, so deep pages do not pay for the
// tail of the tree.
func treeEntries(repo *gitcite.Repo, commit object.ID, offset, limit int) (entries []TreeEntryResponse, more bool, err error) {
	treeID, err := repo.VCS.TreeOf(commit)
	if err != nil {
		return nil, false, err
	}
	fn, err := repo.ResolvedFunctionAt(commit)
	if err != nil && !errors.Is(err, gitcite.ErrNotCitationEnabled) {
		return nil, false, err
	}
	errStop := errors.New("page full")
	idx := 0
	err = vcs.WalkTree(repo.VCS.Objects, treeID, func(p string, e object.TreeEntry) error {
		if p == citefile.Path {
			return nil
		}
		pos := idx
		idx++
		if pos < offset {
			return nil
		}
		if limit > 0 && len(entries) == limit {
			more = true
			return errStop
		}
		cited := fn != nil && fn.Has(p)
		entries = append(entries, TreeEntryResponse{Path: p, IsDir: e.IsDir(), Cited: cited})
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, false, err
	}
	if entries == nil {
		entries = []TreeEntryResponse{}
	}
	return entries, more, nil
}

func (s *Server) handleTreeV1(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("%w: limit %q", ErrBadRequest, v))
			return
		}
		limit = n
	}
	offset := 0
	if v := q.Get("cursor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("%w: cursor %q", ErrBadRequest, v))
			return
		}
		offset = n
	}
	entries, more, err := treeEntries(repo, commit, offset, limit)
	if err != nil {
		writeErr(w, err)
		return
	}
	page := TreePage{Entries: entries}
	if more {
		page.NextCursor = strconv.Itoa(offset + len(entries))
	}
	writeJSON(w, http.StatusOK, page)
}

// ---- citation reads ----

func (s *Server) handleGenCite(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	path := r.URL.Query().Get("path")
	if path == "" {
		path = "/"
	}
	cite, from, err := repo.Generate(commit, path)
	if err != nil {
		writeErr(w, err)
		return
	}
	raw, err := citefile.EncodeEntry(cite)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := CiteResponse{Path: path, From: from, Citation: raw}
	if name := r.URL.Query().Get("format"); name != "" {
		f, err := format.Parse(name)
		if err != nil {
			writeErr(w, err)
			return
		}
		rendered, err := format.Render(cite, f)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp.Rendered = rendered
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleChain(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	path := r.URL.Query().Get("path")
	if path == "" {
		path = "/"
	}
	chain, err := repo.GenerateChain(commit, path)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := ChainResponse{Path: path}
	for _, pc := range chain {
		raw, err := citefile.EncodeEntry(pc.Citation)
		if err != nil {
			writeErr(w, err)
			return
		}
		resp.Chain = append(resp.Chain, CiteResponse{Path: pc.Path, From: pc.Path, Citation: raw})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCiteFile(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	data, err := repo.CiteFileBytes(commit)
	if errors.Is(err, gitcite.ErrNotCitationEnabled) {
		err = fmt.Errorf("%w: citation.cite", ErrNotFound)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// CreditResponse is the wire form of a credit report.
type CreditResponse struct {
	Commit        string         `json:"commit"`
	TotalFiles    int            `json:"totalFiles"`
	ExternalFiles int            `json:"externalFiles"`
	Authors       []CreditAuthor `json:"authors"`
	Entries       []CreditEntry  `json:"entries"`
}

// CreditAuthor is one per-author row.
type CreditAuthor struct {
	Author  string `json:"author"`
	Files   int    `json:"files"`
	Entries int    `json:"entries"`
}

// CreditEntry is one active-domain entry with its exclusive coverage.
type CreditEntry struct {
	Path     string `json:"path"`
	Files    int    `json:"files"`
	External bool   `json:"external"`
}

// handleCredit serves the credit report for a revision (public read, like
// citation generation).
func (s *Server) handleCredit(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	rep, err := report.Build(repo, commit)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := CreditResponse{
		Commit:        rep.Commit.String(),
		TotalFiles:    rep.TotalFiles,
		ExternalFiles: rep.ExternalFiles,
	}
	for _, a := range rep.Authors {
		resp.Authors = append(resp.Authors, CreditAuthor{Author: a.Author, Files: a.Files, Entries: a.Entries})
	}
	for _, e := range rep.Entries {
		resp.Entries = append(resp.Entries, CreditEntry{Path: e.Path, Files: e.Files, External: e.External})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- citation edits ----

// handleEditCite implements the member-only Add/Modify/Delete buttons of the
// extension popup: the platform applies the operation and commits the
// updated citation.cite to the branch.
func (s *Server) handleEditCite(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req EditCiteRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	owner, name := r.PathValue("owner"), r.PathValue("name")
	user := userFrom(ctx)
	repo, release, err := s.platform.AcquireForWrite(ctx, user, owner, name)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	unlock, err := s.platform.LockForEdit(ctx, owner, name)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer unlock()
	if req.Branch == "" {
		req.Branch = "main"
	}
	wt, err := repo.Checkout(req.Branch)
	if err != nil {
		writeErr(w, err)
		return
	}

	var op string
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		var cite core.Citation
		if len(req.Citation) == 0 {
			writeErr(w, fmt.Errorf("%w: missing citation", ErrBadRequest))
			return
		}
		cite, err = citefile.DecodeEntry(req.Citation)
		if err != nil {
			writeErr(w, err)
			return
		}
		if r.Method == http.MethodPost {
			op = "AddCite"
			err = wt.AddCite(req.Path, cite)
		} else {
			op = "ModifyCite"
			err = wt.ModifyCite(req.Path, cite)
		}
	case http.MethodDelete:
		op = "DelCite"
		err = wt.DelCite(req.Path)
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	msg := req.Message
	if msg == "" {
		msg = fmt.Sprintf("%s %s (via GitCite)", op, req.Path)
	}
	commit, err := wt.Commit(vcs.CommitOptions{
		Author:  vcs.Sig(user.Name, user.Name+"@users.git.example", s.Now()),
		Message: msg,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	// The deferred unlock has not run yet, so this publish is ordered with
	// the commit's ref update like applyPush's.
	s.platform.publishRef(owner, name, req.Branch, commit.String())
	writeJSON(w, http.StatusOK, EditCiteResponse{Commit: commit.String()})
}

func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	var req ForkRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	forked, err := s.platform.ForkRepoAs(r.Context(), userFrom(r.Context()), r.PathValue("owner"), r.PathValue("name"), req.NewName)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, err := repoResponse(forked)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// ---- negotiated sync ----

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	repo, release, err := s.platform.AcquireRepo(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	var req NegotiateRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	tip, err := resolveRev(repo, req.Want)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Mode != "" && req.Mode != NegotiateModeWantAll {
		writeErr(w, fmt.Errorf("%w: negotiate mode %q", ErrBadRequest, req.Mode))
		return
	}
	have := make([]object.ID, 0, len(req.Have))
	for _, h := range req.Have {
		if id, err := object.ParseID(h); err == nil {
			have = append(have, id) // malformed haves are ignored, like unknown ones
		}
	}
	if req.Mode == NegotiateModeWantAll {
		// The client will stream the closure from the pull endpoint; the
		// response body stays O(1) instead of one ID per missing object,
		// and the count-only walk never materialises the ID list either.
		count, err := CountMissingObjects(repo.VCS.Objects, tip, have)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, NegotiateResponse{Tip: tip.String(), All: true, Count: count})
		return
	}
	missing, err := MissingObjects(repo.VCS.Objects, tip, have)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := NegotiateResponse{Tip: tip.String(), Missing: make([]string, len(missing))}
	for i, id := range missing {
		resp.Missing[i] = id.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFetchObjects streams the requested objects back as NDJSON, one per
// line — the transfer half of a negotiate round trip. Presence is checked
// up front so a missing object is still reportable as a clean 404.
func (s *Server) handleFetchObjects(w http.ResponseWriter, r *http.Request) {
	repo, release, err := s.platform.AcquireRepo(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	var req FetchRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ids := make([]object.ID, len(req.IDs))
	for i, h := range req.IDs {
		id, err := object.ParseID(h)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: object ID %q", ErrBadRequest, h))
			return
		}
		ids[i] = id
	}
	have, err := repo.VCS.Objects.HasMany(ids)
	if err != nil {
		writeErr(w, err)
		return
	}
	for i, ok := range have {
		if !ok {
			writeErr(w, fmt.Errorf("%w: object %s", ErrNotFound, ids[i].Short()))
			return
		}
	}
	w.Header().Set("Content-Type", MediaTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	sw := NewObjectStreamWriter(w)
	flusher, _ := w.(http.Flusher)
	for i, id := range ids {
		o, err := repo.VCS.Objects.Get(id)
		if err != nil {
			return // headers are gone; abort the stream mid-flight
		}
		if err := sw.WriteObject(o); err != nil {
			return
		}
		if flusher != nil && i%512 == 511 {
			_ = sw.Flush()
			flusher.Flush()
		}
	}
	_ = sw.Flush()
}

// ---- push ----

// applyPush validates and applies one push: the tip must decode to a commit
// whose whole closure is covered by the uploaded objects plus the current
// store, and the branch update must fast-forward — both checked BEFORE the
// batch is stored, so a garbage or rejected push cannot land orphan objects.
// The repository edit lock serialises the check-then-update with concurrent
// pushes and server-side citation edits; readers are never blocked.
func (s *Server) applyPush(ctx context.Context, repo *gitcite.Repo, owner, name, branch string, tip object.ID, batch []store.Encoded, objs map[object.ID]object.Object) (PushResponse, error) {
	if branch == "" {
		return PushResponse{}, fmt.Errorf("%w: missing branch", ErrBadRequest)
	}
	if err := VerifyConnectedClosure(repo.VCS.Objects, objs, tip); err != nil {
		return PushResponse{}, err
	}
	unlock, err := s.platform.LockForEdit(ctx, owner, name)
	if err != nil {
		return PushResponse{}, err
	}
	defer unlock()
	ref := refs.BranchRef(branch)
	if cur, err := repo.VCS.Refs.Get(ref); err == nil && cur != tip {
		ok, err := isAncestorOver(repo.VCS.Objects, objs, cur, tip)
		if err != nil {
			return PushResponse{}, err
		}
		if !ok {
			return PushResponse{}, fmt.Errorf("%w: non-fast-forward push to %s", ErrConflict, branch)
		}
	}
	// Only now do uploaded objects touch the store: one raw batch write.
	if err := repo.VCS.Objects.PutManyEncoded(batch); err != nil {
		return PushResponse{}, err
	}
	if err := repo.VCS.Refs.Set(ref, tip); err != nil {
		return PushResponse{}, err
	}
	// Publish while the edit lock is still held: ref events for one branch
	// hit the replication feed in ref-update order, so followers never
	// observe B-then-A for two pushes that landed A-then-B. The event's
	// feed position acknowledges the push to read-your-writes clients.
	epoch, seq := s.platform.publishRef(owner, name, branch, tip.String())
	return PushResponse{Stored: len(batch), Tip: tip.String(), Seq: seq, Epoch: epoch}, nil
}

// handlePushV1 ingests a streaming push: a PushHeader line followed by one
// object per line. Objects are decoded as they arrive (memory stays
// proportional to the negotiated delta, not the repository).
func (s *Server) handlePushV1(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	owner, name := r.PathValue("owner"), r.PathValue("name")
	repo, release, err := s.platform.AcquireForWrite(ctx, userFrom(ctx), owner, name)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	sr := NewObjectStreamReader(r.Body)
	var hdr PushHeader
	if err := sr.ReadHeader(&hdr); err != nil {
		writeErr(w, fmt.Errorf("%w: push header: %v", ErrBadRequest, err))
		return
	}
	tip, err := object.ParseID(hdr.Tip)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: bad tip: %v", ErrBadRequest, err))
		return
	}
	var batch []store.Encoded
	objs := make(map[object.ID]object.Object)
	for {
		o, enc, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		id := object.HashBytes(enc)
		if _, dup := objs[id]; dup {
			continue
		}
		objs[id] = o
		batch = append(batch, store.Encoded{ID: id, Enc: enc, Obj: o})
	}
	resp, err := s.applyPush(ctx, repo, owner, name, hdr.Branch, tip, batch, objs)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.platform.maybeAutoRepack(owner, name)
	writeJSON(w, http.StatusOK, resp)
}

// ---- pull ----

// handlePullV1 streams a revision's full reachable closure: a PullHeader
// line, then one object per line, serialised straight out of the live store
// (objects are immutable and the store concurrency-safe — no lock is held
// across the transfer and no closure copy is staged). Commit-addressed
// requests get the same ETag/304 treatment as the citation reads; clients
// with prior state should negotiate instead.
func (s *Server) handlePullV1(w http.ResponseWriter, r *http.Request) {
	repo, commit, release, ok := s.beginCommitRead(w, r)
	if !ok {
		return
	}
	defer release()
	w.Header().Set("Content-Type", MediaTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	sw := NewObjectStreamWriter(w)
	if err := sw.WriteValue(PullHeader{Tip: commit.String()}); err != nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	n := 0
	err := store.WalkClosure(repo.VCS.Objects, func(_ object.ID, o object.Object) error {
		if err := sw.WriteObject(o); err != nil {
			return err
		}
		if n++; flusher != nil && n%512 == 0 {
			if err := sw.Flush(); err != nil {
				return err
			}
			flusher.Flush()
		}
		return nil
	}, commit)
	if err != nil {
		return // mid-stream failure: abort the connection, client's decode fails
	}
	_ = sw.Flush()
}
