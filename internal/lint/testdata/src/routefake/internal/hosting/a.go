// Package hosting exercises the routetable analyzer.
package hosting

import "net/http"

// route is the table row the analyzer recognises by name and package.
type route struct {
	pattern string
	handler http.HandlerFunc
}

type Server struct{}

func (s *Server) routes() []route {
	return []route{{"GET /a", s.handleA}}
}

func (s *Server) handleA(http.ResponseWriter, *http.Request) {}

// newMux registers the table in its loop, which is legal, and one route by
// hand, which is not.
func newMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	mux.HandleFunc("GET /stray", s.handleA) // want `HandleFunc outside the route table`
	return mux
}

// A loop over anything but the table is no registration loop.
func registerPaths(mux *http.ServeMux, h http.Handler) {
	for _, p := range []string{"/x", "/y"} {
		mux.Handle(p, h) // want `Handle outside the route table`
	}
}
