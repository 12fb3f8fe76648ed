#!/usr/bin/env bash
# bench_regression.sh BASE_COUNTERS HEAD_COUNTERS [BASE_LATENCY HEAD_LATENCY]
#
# Two independent gates between a PR's base and head:
#
# Counters — the deterministic efficiency counters emitted by
# `gitcite-bench -experiment counters` ("counter <name> = <integer>" lines).
# Any counter that GREW fails the gate — these are pure deterministic counts
# (store writes per commit, pack bytes per one-file commit, ref files
# replaced per one-file commit, citation.cite blobs written per code-only
# commit (citefile_puts_per_code_only_commit), wire objects per sync,
# negotiate IDs, full-store scans, index bytes per pack append batch,
# backend reads per cite of a reopened repository, commit reads per merge
# base on a 1 000-commit history (commit_reads_per_merge_base)), so growth is a real
# efficiency regression, not runner noise. Counters present only in head
# are reported as new (informational); counters present only in base fail,
# so a regression cannot hide behind a counter rename. Pass "-" for both counter
# files to skip this gate (latency-only invocations).
#
# Latency — the flat lines gitcite-load prints ("latency <scenario>
# <endpoint> p99_us = N" plus "rate <scenario> offered_mrps = N"). Only p99
# is gated, with headroom for runner noise: head p99 may not exceed
# max(2 x base, base + 10000 us). A 50 ms injected server delay blows
# through either bound; CI noise does not. p50/p999 and achieved-rate
# deltas are printed as a benchstat-style table for context. A base with no
# latency lines (predating the load harness) gets the same grace rule as a
# counter-less base.
set -u

usage="usage: bench_regression.sh BASE_COUNTERS HEAD_COUNTERS [BASE_LATENCY HEAD_LATENCY]"
base_file=${1:?$usage}
head_file=${2:?$usage}
base_lat_file=${3:-}
head_lat_file=${4:-}

fail=0

# ---------------------------------------------------------------- counters

get_counters() { # file -> "name value" lines
  grep -E '^counter [a-z0-9_]+ = [0-9]+$' "$1" 2>/dev/null | awk '{print $2, $4}'
}

if [ "$base_file" = "-" ] && [ "$head_file" = "-" ]; then
  echo "NOTE: counter gate skipped (no counter files given)."
else
  base_counters=$(get_counters "$base_file")
  head_counters=$(get_counters "$head_file")

  if [ -z "$head_counters" ]; then
    echo "FAIL: head produced no counters (gitcite-bench -experiment counters broken?)"
    exit 1
  fi
  if [ -z "$base_counters" ]; then
    echo "NOTE: base produced no counters (predates the counters mode); nothing to compare."
    echo "$head_counters" | while read -r name value; do
      echo "  new counter $name = $value"
    done
  else
    while read -r name base_value; do
      head_value=$(echo "$head_counters" | awk -v n="$name" '$1 == n {print $2}')
      if [ -z "$head_value" ]; then
        echo "FAIL: counter $name (base $base_value) missing from head"
        fail=1
      elif [ "$head_value" -gt "$base_value" ]; then
        echo "FAIL: counter $name grew: $base_value -> $head_value"
        fail=1
      elif [ "$head_value" -lt "$base_value" ]; then
        echo "IMPROVED: counter $name: $base_value -> $head_value"
      else
        echo "OK: counter $name = $head_value"
      fi
    done <<<"$base_counters"

    while read -r name value; do
      if ! echo "$base_counters" | awk -v n="$name" '$1 == n {found=1} END {exit !found}'; then
        echo "NEW: counter $name = $value"
      fi
    done <<<"$head_counters"
  fi
fi

# ----------------------------------------------------------------- latency

# "latency <scenario> <endpoint> <metric> = <us>"  -> "scenario/endpoint/metric us"
# "rate <scenario> <metric> = <mrps>"              -> "scenario/-/metric mrps"
get_latency() { # file -> "key value" lines
  grep -E '^(latency [a-z0-9-]+ [a-z0-9_]+|rate [a-z0-9-]+) [a-z0-9_]+ = [0-9]+$' "$1" 2>/dev/null |
    awk '$1 == "latency" {print $2 "/" $3 "/" $4, $6}
         $1 == "rate"    {print $2 "/-/" $3, $5}'
}

if [ -z "$base_lat_file" ] || [ -z "$head_lat_file" ]; then
  echo "NOTE: latency gate skipped (no latency files given)."
  exit $fail
fi

base_lat=$(get_latency "$base_lat_file")
head_lat=$(get_latency "$head_lat_file")

if [ -z "$head_lat" ]; then
  echo "FAIL: head produced no latency lines (gitcite-load broken?)"
  exit 1
fi
if [ -z "$base_lat" ]; then
  echo "NOTE: base produced no latency lines (predates the load harness); nothing to compare."
  exit $fail
fi

echo ""
echo "latency head vs base (us; rates in milli-req/s):"
printf '%-42s %12s %12s %9s\n' "metric" "base" "head" "delta"
while read -r key head_value; do
  base_value=$(echo "$base_lat" | awk -v k="$key" '$1 == k {print $2}')
  [ -z "$base_value" ] && continue
  if [ "$base_value" -gt 0 ]; then
    delta=$(( (head_value - base_value) * 100 / base_value ))
    printf '%-42s %12s %12s %8s%%\n' "$key" "$base_value" "$head_value" "$delta"
  else
    printf '%-42s %12s %12s %9s\n' "$key" "$base_value" "$head_value" "n/a"
  fi
done <<<"$head_lat"
echo ""

# Gate: head p99 <= max(2*base, base + 10000 us) per scenario/endpoint.
while read -r key base_value; do
  case "$key" in */p99_us) ;; *) continue ;; esac
  head_value=$(echo "$head_lat" | awk -v k="$key" '$1 == k {print $2}')
  if [ -z "$head_value" ]; then
    echo "FAIL: p99 metric $key (base ${base_value}us) missing from head"
    fail=1
    continue
  fi
  allowed=$((base_value * 2))
  floor=$((base_value + 10000))
  [ "$floor" -gt "$allowed" ] && allowed=$floor
  if [ "$head_value" -gt "$allowed" ]; then
    echo "FAIL: p99 $key regressed: ${base_value}us -> ${head_value}us (allowed ${allowed}us)"
    fail=1
  else
    echo "OK: p99 $key = ${head_value}us (base ${base_value}us, allowed ${allowed}us)"
  fi
done <<<"$base_lat"

exit $fail
