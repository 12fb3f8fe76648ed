// admin.go is the operator surface of the hosted platform: a /api/v1/admin
// route group (platform status, per-repository storage stats, manual
// repack and orphan-GC triggers) gated by a dedicated admin token that is
// configured at server start and never stored in the platform manifest.
package hosting

import (
	"crypto/subtle"
	"fmt"
	"net/http"
)

// WithAdminToken enables the /api/v1/admin endpoints for callers bearing
// this token. The admin group is disabled (every request 403s) when no
// token is configured — there is no default credential.
func WithAdminToken(token string) ServerOption {
	return func(s *Server) { s.adminToken = token }
}

// adminOnly wraps an admin handler with the token gate: disabled group →
// 403, missing or wrong token → 401. The comparison is constant-time.
func (s *Server) adminOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adminToken == "" {
			writeErr(w, fmt.Errorf("%w: admin API disabled (no admin token configured)", ErrForbidden))
			return
		}
		tok := bearerToken(r)
		if subtle.ConstantTimeCompare([]byte(tok), []byte(s.adminToken)) != 1 {
			writeErr(w, fmt.Errorf("%w: admin token required", ErrUnauthorized))
			return
		}
		h(w, r)
	}
}

// AdminStatusResponse is the admin status body: the platform counters,
// plus — on a read replica — the replication progress, and — on a primary
// with followers — the fleet's acknowledged cursors.
type AdminStatusResponse struct {
	PlatformStatus
	Replica *ReplicaStatus `json:"replica,omitempty"`
	Fleet   *FleetStatus   `json:"fleet,omitempty"`
}

// handleAdminStatus reports platform-wide counters: users, repositories,
// open repository handles against their limit, the manifest journal and,
// on a replica, per-repo replication lag and the last journaled cursor;
// on a primary, the true fleet lag derived from follower polls.
func (s *Server) handleAdminStatus(w http.ResponseWriter, r *http.Request) {
	resp := AdminStatusResponse{PlatformStatus: s.platform.Status(r.Context())}
	if repl := s.replica.Load(); repl != nil && repl.status != nil {
		rs := repl.status()
		resp.Replica = &rs
	}
	if fleet := s.platform.FleetStatus(); len(fleet.Followers) > 0 {
		resp.Fleet = &fleet
	}
	writeJSON(w, http.StatusOK, resp)
}

// PromoteResponse answers a successful POST /api/v1/admin/promote with the
// fresh epoch the new primary minted — the fence that forces every
// follower of the old feed (including a returning old primary) to resync.
type PromoteResponse struct {
	Promoted bool   `json:"promoted"`
	Epoch    string `json:"epoch"`
}

// handleAdminPromote serves POST /api/v1/admin/promote: flip this caught-up
// replica into a primary. Refusals are stable wire codes — "conflict" when
// the server is already a primary or a concurrent promote won,
// "replica_lagging" when the replica has not applied through the
// primary's head. On success the replica gate drops atomically: the very
// next write request dispatches locally instead of 307ing.
func (s *Server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	if s.replica.Load() == nil {
		writeErr(w, fmt.Errorf("%w: already a primary", ErrConflict))
		return
	}
	if s.promote == nil {
		writeErr(w, fmt.Errorf("%w: promotion not configured on this server", ErrBadRequest))
		return
	}
	epoch, err := s.promote(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	s.replica.Store(nil)
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, Epoch: epoch})
}

// handleAdminRepoStats reports one repository's membership and storage
// shape (pack count, packed and loose objects).
func (s *Server) handleAdminRepoStats(w http.ResponseWriter, r *http.Request) {
	rs, err := s.platform.RepoStats(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// AdminRepackResponse reports a manual repack: how many loose objects the
// fold absorbed.
type AdminRepackResponse struct {
	Folded int `json:"folded"`
}

// handleAdminRepack synchronously folds and consolidates one repository's
// object store — the manual counterpart of the push-piggybacked policy.
func (s *Server) handleAdminRepack(w http.ResponseWriter, r *http.Request) {
	folded, err := s.platform.RepackRepo(r.Context(), r.PathValue("owner"), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AdminRepackResponse{Folded: folded})
}

// AdminGCResponse lists the orphan directories a manual GC removed.
type AdminGCResponse struct {
	Removed []string `json:"removed"`
}

// handleAdminGC removes orphan repository directories under the data
// directory (normally boot reconciliation's job; this is the on-demand
// trigger). A no-op on in-memory platforms.
func (s *Server) handleAdminGC(w http.ResponseWriter, r *http.Request) {
	if err := r.Context().Err(); err != nil {
		writeErr(w, err)
		return
	}
	removed, err := s.platform.GCOrphans()
	if err != nil {
		writeErr(w, err)
		return
	}
	if removed == nil {
		removed = []string{}
	}
	writeJSON(w, http.StatusOK, AdminGCResponse{Removed: removed})
}
