#!/usr/bin/env bash
# load_smoke.sh [--prove-gate] [OUT_JSON PR_NUM [LATENCY_TXT]]
#
# CI entry point for the open-loop load harness.
#
# Default mode runs the deterministic smoke profile (fixed seed, a few
# seconds per scenario) across the whole matrix and writes the flat latency
# lines the regression gate parses to LATENCY_TXT (default
# head-latency.txt). Given an OUT_JSON, it also merges the latency section
# into that file, labelled PR_NUM (required with OUT_JSON). CI passes the
# uncommitted load-head.json / load-base.json and the PR's number; an empty
# OUT_JSON writes no JSON, so no committed BENCH_<pr>.json is rewritten.
#
# --prove-gate is the self-test CI runs once per PR: it drives the registry
# scenario clean and again with a 50 ms injected server delay, then asserts
# scripts/bench_regression.sh PASSES on clean-vs-clean and FAILS on
# clean-vs-delayed — proving the p99 gate actually bites before trusting it
# to guard real regressions.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--prove-gate" ]; then
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
  echo "==> prove-gate: clean registry run"
  go run ./cmd/gitcite-load -scenarios registry -duration 3s -rate 50 >"$work/clean.txt"
  echo "==> prove-gate: registry run with 50ms injected server delay"
  go run ./cmd/gitcite-load -scenarios registry -duration 3s -rate 50 -inject-delay 50ms >"$work/slow.txt"

  echo "==> prove-gate: clean vs clean must pass"
  if ! bash scripts/bench_regression.sh - - "$work/clean.txt" "$work/clean.txt"; then
    echo "FAIL: latency gate rejected identical clean runs"
    exit 1
  fi
  echo "==> prove-gate: clean vs delayed must fail"
  if bash scripts/bench_regression.sh - - "$work/clean.txt" "$work/slow.txt"; then
    echo "FAIL: latency gate did not catch a 50ms injected delay"
    exit 1
  fi
  echo "==> prove-gate: OK (gate passes clean runs, catches the injected delay)"
  exit 0
fi

out_json=${1:-}
pr_num=${2:-}
latency_txt=${3:-head-latency.txt}

out=()
if [ -n "$out_json" ]; then
  if [ -z "$pr_num" ]; then
    echo "load_smoke.sh: OUT_JSON $out_json needs a PR_NUM" >&2
    exit 2
  fi
  out=(-out "$out_json" -pr "$pr_num")
fi

echo "==> load smoke: full scenario matrix, smoke profile"
go run ./cmd/gitcite-load -profile smoke "${out[@]}" | tee "$latency_txt"
echo "==> wrote ${out_json:+$out_json and }$latency_txt"
