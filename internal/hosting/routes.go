package hosting

import "net/http"

// route is one row of the HTTP surface: a ServeMux pattern ("METHOD
// /path"), the route's kind and its handler. NewServer registers every row
// in one loop and derives the route's wrappers from its kind, so a policy
// is declared once in the table instead of remembered on each line.
type route struct {
	pattern string
	kind    routeKind
	handler http.HandlerFunc
}

// routeKind selects the policies NewServer applies to a route.
type routeKind string

const (
	// kindRead routes are served locally everywhere, replicas included.
	kindRead routeKind = "read"
	// kindWrite routes change state. They go through mutating: on a
	// replica they answer 307 → primary instead of dispatching.
	kindWrite routeKind = "write"
	// kindAdmin routes go through adminOnly, the admin-token gate. They
	// exist regardless of configuration so their status codes are stable.
	kindAdmin routeKind = "admin"
	// kindProbe routes are the health probes (health.go): no token, and
	// the rate limiter never throttles them.
	kindProbe routeKind = "probe"
)

// routes is the server's whole HTTP surface, versioned under /api/v1.
func (s *Server) routes() []route {
	return []route{
		{"POST /api/v1/users", kindWrite, s.handleCreateUser},
		{"POST /api/v1/repos", kindWrite, s.handleCreateRepo},
		{"GET /api/v1/repos/{owner}/{name}", kindRead, s.handleGetRepo},
		{"POST /api/v1/repos/{owner}/{name}/members", kindWrite, s.handleAddMember},
		{"GET /api/v1/repos/{owner}/{name}/tree/{rev}", kindRead, s.handleTreeV1},
		{"GET /api/v1/repos/{owner}/{name}/cite/{rev}", kindRead, s.handleGenCite},
		{"GET /api/v1/repos/{owner}/{name}/chain/{rev}", kindRead, s.handleChain},
		{"GET /api/v1/repos/{owner}/{name}/citefile/{rev}", kindRead, s.handleCiteFile},
		{"GET /api/v1/repos/{owner}/{name}/credit/{rev}", kindRead, s.handleCredit},
		{"POST /api/v1/repos/{owner}/{name}/cite", kindWrite, s.handleEditCite},
		{"PUT /api/v1/repos/{owner}/{name}/cite", kindWrite, s.handleEditCite},
		{"DELETE /api/v1/repos/{owner}/{name}/cite", kindWrite, s.handleEditCite},
		{"POST /api/v1/repos/{owner}/{name}/fork", kindWrite, s.handleFork},
		// Negotiate and objects are POST but read-only: replicas serve them.
		{"POST /api/v1/repos/{owner}/{name}/negotiate", kindRead, s.handleNegotiate},
		{"POST /api/v1/repos/{owner}/{name}/objects", kindRead, s.handleFetchObjects},
		{"POST /api/v1/repos/{owner}/{name}/push", kindWrite, s.handlePushV1},
		{"GET /api/v1/repos/{owner}/{name}/pull/{rev}", kindRead, s.handlePullV1},
		// The replication feed carries user tokens, so it is admin-gated.
		{"GET /api/v1/events", kindAdmin, s.handleEvents},
		{"GET /api/v1/replica/snapshot", kindAdmin, s.handleSnapshot},
		{"GET /api/v1/admin/status", kindAdmin, s.handleAdminStatus},
		{"GET /api/v1/admin/repos/{owner}/{name}/stats", kindAdmin, s.handleAdminRepoStats},
		{"POST /api/v1/admin/repos/{owner}/{name}/repack", kindAdmin, s.handleAdminRepack},
		{"POST /api/v1/admin/gc", kindAdmin, s.handleAdminGC},
		{"POST /api/v1/admin/promote", kindAdmin, s.handleAdminPromote},
		{"GET /healthz", kindProbe, s.handleHealthz},
		{"GET /readyz", kindProbe, s.handleReadyz},
	}
}
