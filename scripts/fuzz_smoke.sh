#!/usr/bin/env bash
# fuzz_smoke.sh — runs every native Go fuzz target for a bounded
# wall-clock slice, as a CI smoke pass over the crash-recovery and wire
# parsers and the citation-entry codec memo. The committed seed corpora
# under each package's testdata/fuzz replay on every plain `go test` run already; this script additionally
# lets the mutation engine explore beyond the seeds for FUZZTIME per
# target (default 10s, override via the FUZZTIME env var).
#
# Any crasher the engine finds is written to the package's testdata/fuzz
# directory by `go test` itself; commit it with the fix so it becomes a
# permanent regression input.
set -euo pipefail

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

targets=(
	"FuzzDecodeCommit   ./internal/vcs/object"
	"FuzzDecodeTree     ./internal/vcs/object"
	"FuzzPackRecordScan ./internal/vcs/store"
	"FuzzSegmentReplay  ./internal/vcs/store"
	"FuzzWireNDJSON     ./internal/hosting"
	"FuzzManifestReplay ./internal/hosting"
	"FuzzCiteEntryCanonical ./internal/citefile"
	"FuzzRefFile        ./internal/vcs/refs"
)

for t in "${targets[@]}"; do
	read -r name pkg <<<"$t"
	echo "=== fuzz $name ($pkg, $FUZZTIME)"
	go test -run "^${name}\$" -fuzz "^${name}\$" -fuzztime "$FUZZTIME" "$pkg"
done
echo "fuzz smoke: all targets clean"
