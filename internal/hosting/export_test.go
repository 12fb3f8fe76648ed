package hosting

import "strings"

// SetForkCrashPoint makes ForkRepoAs stop at the named stage as a crash
// would (see forkCrashPoint); "" clears it. For external test packages.
func SetForkCrashPoint(stage string) {
	if stage == "" {
		forkCrashPoint = nil
		return
	}
	forkCrashPoint = func(s string) bool { return s == stage }
}

// Route is one row of the server's route table, for external test
// packages. Kind is "read", "write", "admin" or "probe".
type Route struct {
	Method, Path, Kind string
}

// Routes returns the server's route table in declaration order.
func Routes() []Route {
	var out []Route
	for _, rt := range (&Server{}).routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		out = append(out, Route{Method: method, Path: path, Kind: string(rt.kind)})
	}
	return out
}
