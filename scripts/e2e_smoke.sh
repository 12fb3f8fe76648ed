#!/usr/bin/env bash
# e2e_smoke.sh — boots a real gitcite-server and drives a full round trip
# with the real gitcite CLI: init → commit (lands in a pack) → push → clone
# into a second working copy via pull → generate citations locally and over
# the server's REST API. Run from the repository root; needs only the Go
# toolchain and curl.
set -euo pipefail

PORT=${E2E_PORT:-8471}
RPORT=${E2E_REPLICA_PORT:-8472}
ADMIN_TOK="e2e-admin-tok"
WORK=$(mktemp -d)
BIN="$WORK/bin"
SERVER_PID=""
REPLICA_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$REPLICA_PID" ] && kill "$REPLICA_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> building binaries"
mkdir -p "$BIN"
go build -o "$BIN/gitcite" ./cmd/gitcite
go build -o "$BIN/gitcite-server" ./cmd/gitcite-server

echo "==> starting gitcite-server on :$PORT (pack-backed storage)"
"$BIN/gitcite-server" -addr "127.0.0.1:$PORT" -pack "$WORK/server-data" -admin-token "$ADMIN_TOK" &
SERVER_PID=$!
BASE="http://127.0.0.1:$PORT"

echo "==> waiting for the server, creating user alice"
TOKEN=""
for _ in $(seq 1 50); do
  body=$(curl -sf -X POST "$BASE/api/v1/users" \
    -H 'Content-Type: application/json' -d '{"name":"alice"}' 2>/dev/null) && {
    TOKEN=$(echo "$body" | sed -n 's/.*"token":"\([^"]*\)".*/\1/p')
    break
  }
  sleep 0.2
done
[ -n "$TOKEN" ] || { echo "FAIL: server never came up / no token"; exit 1; }

echo "==> creating hosted repository alice/demo"
curl -sf -X POST "$BASE/api/v1/repos" \
  -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
  -d '{"name":"demo","url":"https://example.org/alice/demo","license":"MIT"}' > /dev/null

echo "==> local repository: init, commit, add-cite, push"
SRC="$WORK/src"
mkdir -p "$SRC" && cd "$SRC"
"$BIN/gitcite" init -owner alice -name demo -url "https://example.org/alice/demo" -license MIT
mkdir -p lib
printf 'hello, citation\n' > hello.txt
printf 'package lib\n' > lib/code.go
"$BIN/gitcite" commit -author alice -m "initial import"
ls .gitcite/objects/pack/*.pack > /dev/null 2>&1 || { echo "FAIL: first commit wrote no pack file"; exit 1; }
for d in .gitcite/objects/*/; do
  case "$(basename "$d")" in
    [0-9a-f][0-9a-f]) echo "FAIL: first commit wrote a loose fanout dir $d"; exit 1 ;;
  esac
done
"$BIN/gitcite" add-cite -path /lib -owner bob -repo blib -url https://example.org/bob/blib -version 1
"$BIN/gitcite" commit -author alice -m "cite lib"
"$BIN/gitcite" push -server "$BASE" -token "$TOKEN" -owner alice -repo demo -branch main

echo "==> second working copy: pull (cold clone) and cite"
DST="$WORK/dst"
mkdir -p "$DST" && cd "$DST"
"$BIN/gitcite" init -owner alice -name demo -url "https://example.org/alice/demo"
"$BIN/gitcite" pull -server "$BASE" -token "$TOKEN" -owner alice -repo demo -branch main
[ -f hello.txt ] || { echo "FAIL: pulled worktree missing hello.txt"; exit 1; }
cite_out=$("$BIN/gitcite" cite -path /lib/code.go 2>/dev/null)
echo "$cite_out" | grep -q "blib" || { echo "FAIL: local cite did not resolve to blib: $cite_out"; exit 1; }

echo "==> abbreviated-revision cite through the local pack index"
TIP=$(curl -sf "$BASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
[ -n "$TIP" ] || { echo "FAIL: no main tip in repo metadata"; exit 1; }
"$BIN/gitcite" cite -path /lib/code.go -rev "${TIP:0:8}" > /dev/null

echo "==> server-side GenCite over REST (full ID and abbreviated prefix)"
srv_cite=$(curl -sf "$BASE/api/v1/repos/alice/demo/cite/main?path=/lib/code.go&format=text")
echo "$srv_cite" | grep -q "blib" || { echo "FAIL: server cite did not resolve to blib: $srv_cite"; exit 1; }
curl -sf "$BASE/api/v1/repos/alice/demo/cite/${TIP:0:8}?path=/" > /dev/null

echo "==> repack the source repository and cite again"
cd "$SRC"
"$BIN/gitcite" repack
"$BIN/gitcite" cite -path /lib/code.go > /dev/null
ls .gitcite/objects/pack/*.pack > /dev/null || { echo "FAIL: no pack files after repack"; exit 1; }

echo "==> restart leg: kill -9 the server, reboot from the same data dir"
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
"$BIN/gitcite-server" -addr "127.0.0.1:$PORT" -pack "$WORK/server-data" -admin-token "$ADMIN_TOK" &
SERVER_PID=$!
up=""
for _ in $(seq 1 50); do
  curl -sf "$BASE/api/v1/repos/alice/demo" > /dev/null 2>&1 && { up=1; break; }
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: server did not come back after kill -9"; exit 1; }

echo "==> recovered server: pull into a third copy, cite, and push with the old token"
DST2="$WORK/dst2"
mkdir -p "$DST2" && cd "$DST2"
"$BIN/gitcite" init -owner alice -name demo -url "https://example.org/alice/demo"
"$BIN/gitcite" pull -server "$BASE" -token "$TOKEN" -owner alice -repo demo -branch main
[ -f hello.txt ] || { echo "FAIL: post-restart pull missing hello.txt"; exit 1; }
cite2=$(curl -sf "$BASE/api/v1/repos/alice/demo/cite/main?path=/lib/code.go&format=text")
echo "$cite2" | grep -q "blib" || { echo "FAIL: post-restart server cite broken: $cite2"; exit 1; }
TIP2=$(curl -sf "$BASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
[ "$TIP2" = "$TIP" ] || { echo "FAIL: branch tip changed across restart: $TIP2 != $TIP"; exit 1; }
printf 'post-restart work\n' > survived.txt
"$BIN/gitcite" commit -author alice -m "after restart"
"$BIN/gitcite" push -server "$BASE" -token "$TOKEN" -owner alice -repo demo -branch main

echo "==> replica leg: boot a read replica mirroring the primary"
RBASE="http://127.0.0.1:$RPORT"
"$BIN/gitcite-server" -addr "127.0.0.1:$RPORT" -pack "$WORK/replica-data" \
  -replica-of "$BASE" -replica-token "$ADMIN_TOK" -replica-poll 200ms -admin-token "$ADMIN_TOK" &
REPLICA_PID=$!

wait_replica_tip() { # $1 = expected main tip
  for _ in $(seq 1 100); do
    rtip=$(curl -sf "$RBASE/api/v1/repos/alice/demo" 2>/dev/null | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
    [ "$rtip" = "$1" ] && return 0
    sleep 0.2
  done
  return 1
}
TIP3=$(curl -sf "$BASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
wait_replica_tip "$TIP3" || { echo "FAIL: replica never caught up to primary tip $TIP3"; exit 1; }

echo "==> cite from the replica; writes answer 307 at the primary"
rcite=$(curl -sf "$RBASE/api/v1/repos/alice/demo/cite/main?path=/lib/code.go&format=text")
echo "$rcite" | grep -q "blib" || { echo "FAIL: replica cite did not resolve to blib: $rcite"; exit 1; }
code=$(curl -s -o /dev/null -w "%{http_code}" -X POST "$RBASE/api/v1/repos/alice/demo/push" \
  -H "Authorization: Bearer $TOKEN" -d '{}')
[ "$code" = "307" ] || { echo "FAIL: push against replica = $code, want 307"; exit 1; }
rstatus=$(curl -sf -H "Authorization: Bearer $ADMIN_TOK" "$RBASE/api/v1/admin/status")
echo "$rstatus" | grep -q '"replica"' || { echo "FAIL: replica admin status missing replica section: $rstatus"; exit 1; }

echo "==> kill -9 the replica mid-flight, push more to the primary, restart and catch up"
kill -9 "$REPLICA_PID" 2>/dev/null || true
wait "$REPLICA_PID" 2>/dev/null || true
cd "$DST2"
printf 'replicated after replica crash\n' > crash.txt
"$BIN/gitcite" commit -author alice -m "while replica was down"
"$BIN/gitcite" push -server "$BASE" -token "$TOKEN" -owner alice -repo demo -branch main
TIP4=$(curl -sf "$BASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
[ "$TIP4" != "$TIP3" ] || { echo "FAIL: primary tip did not advance"; exit 1; }
"$BIN/gitcite-server" -addr "127.0.0.1:$RPORT" -pack "$WORK/replica-data" \
  -replica-of "$BASE" -replica-token "$ADMIN_TOK" -replica-poll 200ms -admin-token "$ADMIN_TOK" &
REPLICA_PID=$!
wait_replica_tip "$TIP4" || { echo "FAIL: restarted replica never caught up to $TIP4"; exit 1; }
curl -sf "$RBASE/api/v1/repos/alice/demo/cite/main?path=/" > /dev/null \
  || { echo "FAIL: cite on restarted replica"; exit 1; }

echo "==> promotion leg: kill -9 the primary, promote the replica over the wire"
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
promo=$(curl -s -X POST "$RBASE/api/v1/admin/promote" -H "Authorization: Bearer $ADMIN_TOK")
echo "$promo" | grep -q '"promoted":true' || { echo "FAIL: promote refused: $promo"; exit 1; }

echo "==> the promoted server acknowledges writes and serves citations"
cd "$DST2"
printf 'written to the promoted primary\n' > promoted.txt
"$BIN/gitcite" commit -author alice -m "after failover"
"$BIN/gitcite" push -server "$RBASE" -token "$TOKEN" -owner alice -repo demo -branch main
pcite=$(curl -sf "$RBASE/api/v1/repos/alice/demo/cite/main?path=/lib/code.go&format=text")
echo "$pcite" | grep -q "blib" || { echo "FAIL: cite on promoted primary: $pcite"; exit 1; }

echo "==> kill -9 the promoted server; it reboots as primary despite -replica-of"
PTIP=$(curl -sf "$RBASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
kill -9 "$REPLICA_PID" 2>/dev/null || true
wait "$REPLICA_PID" 2>/dev/null || true
"$BIN/gitcite-server" -addr "127.0.0.1:$RPORT" -pack "$WORK/replica-data" \
  -replica-of "$BASE" -replica-token "$ADMIN_TOK" -replica-poll 200ms -admin-token "$ADMIN_TOK" &
REPLICA_PID=$!
up=""
for _ in $(seq 1 50); do
  curl -sf "$RBASE/api/v1/repos/alice/demo" > /dev/null 2>&1 && { up=1; break; }
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: promoted server did not come back after kill -9"; exit 1; }
PTIP2=$(curl -sf "$RBASE/api/v1/repos/alice/demo" | sed -n 's/.*"main":"\([0-9a-f]*\)".*/\1/p')
[ "$PTIP2" = "$PTIP" ] || { echo "FAIL: tip changed across promoted restart: $PTIP2 != $PTIP"; exit 1; }
printf 'post-promotion restart\n' > promoted2.txt
"$BIN/gitcite" commit -author alice -m "promoted primary survives restart"
"$BIN/gitcite" push -server "$RBASE" -token "$TOKEN" -owner alice -repo demo -branch main

echo "==> graceful shutdown drains and exits cleanly"
kill -TERM "$REPLICA_PID" 2>/dev/null || true
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""

echo "PASS: e2e smoke (server boot, push, cold-clone pull, cite, abbreviated rev, repack, kill -9 restart recovery, replica mirror + 307 + crash catch-up, kill -9 promotion + promoted reboot-as-primary, graceful shutdown)"
