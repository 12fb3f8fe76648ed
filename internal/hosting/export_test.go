package hosting

// SetForkCrashPoint makes ForkRepoAs stop at the named stage as a crash
// would (see forkCrashPoint); "" clears it. For external test packages.
func SetForkCrashPoint(stage string) {
	if stage == "" {
		forkCrashPoint = nil
		return
	}
	forkCrashPoint = func(s string) bool { return s == stage }
}
