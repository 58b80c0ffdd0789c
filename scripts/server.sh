#!/usr/bin/env bash
# Server smoke gate: boot the real `lake_server` binary, exercise one
# request per protocol verb over the wire, scrape the Prometheus
# endpoint, capture a `swarm --trace` twice (same seed, same bytes),
# then SIGTERM it mid-life and assert a graceful drain —
# in-flight work finished, metrics flushed, exit status 0. An idle leg
# SIGTERMs a server nobody ever connected to (the drain must wake the
# blocked acceptor by itself). A last leg boots with the write-ahead
# journal, kill -9s the process mid-swarm, restarts on the same WAL dir,
# and asserts every acked write is readable again (the durability
# contract end-to-end, real processes and real fsyncs).
#
# This is deliberately an end-to-end process test (fork/exec, signals,
# real sockets), complementing the in-process chaos suites in
# crates/lake-server/tests/.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build -q --release -p lake-server

BIN=target/release/lake_server
LOG=$(mktemp)
WAL_DIR=$(mktemp -d)
SERVER_PID=

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "$LOG" "$LOG.a" "$LOG.b"
    rm -rf "$WAL_DIR"
}
trap cleanup EXIT

# Wait for "listening on HOST:PORT" in a server log; prints the addr.
wait_addr() {
    local log=$1 addr=
    for _ in $(seq 1 100); do
        addr=$(grep -m1 '^listening on ' "$log" 2>/dev/null | awk '{print $3}' || true)
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        sleep 0.05
    done
    echo "server.sh: server never reported its address" >&2
    cat "$log" >&2
    return 1
}

"$BIN" serve --chaos --capacity 64 >"$LOG" 2>&1 &
SERVER_PID=$!

# The serve command prints "listening on HOST:PORT" once bound.
ADDR=$(wait_addr "$LOG")
echo "server.sh: serving at $ADDR"

req() { "$BIN" request "$ADDR" "$@"; }

# One request per verb, each asserting its typed outcome.
req health | grep -q '"status":"ok"'
req put --tenant acme --name t1 --kind text \
    --body '"hello lake"' | grep -q '"status":"ok"'
req get --tenant acme --name t1 | grep -q 'hello lake'
req list --tenant acme | grep -q 't1'
req stats --tenant acme | grep -q '"datasets":1'
req del --tenant acme --name t1 | grep -q '"status":"ok"'
# A missing dataset is a typed 404, and the client exits 2 (typed
# error), never 1 (transport failure).
set +e
out=$(req get --tenant acme --name t1)
rc=$?
set -e
[[ $rc -eq 2 ]] || { echo "server.sh: expected typed-error exit 2, got $rc" >&2; exit 1; }
echo "$out" | grep -q '"code":"not_found"'
# Chaos verbs answer typed errors without killing the process.
set +e
req flaky --tenant acme >/dev/null
req boom --tenant acme >/dev/null
set -e
kill -0 "$SERVER_PID" || { echo "server.sh: process died on chaos verbs" >&2; exit 1; }
req health | grep -q '"status":"ok"'

# Scrape the metrics endpoint and check the server family is exported.
req metrics | grep -q 'lake_server_requests_total'
req metrics | grep -q 'lake_server_worker_panics_total'

# `swarm --trace` writes the workload it offered, a pure function of the
# seed: two captures from the same live server are byte-identical.
"$BIN" swarm "$ADDR" --clients 8 --requests 6 --seed 42 --trace "$LOG.a" >/dev/null
"$BIN" swarm "$ADDR" --clients 8 --requests 6 --seed 42 --trace "$LOG.b" >/dev/null
cmp -s "$LOG.a" "$LOG.b" || { echo "server.sh: same-seed trace captures differ" >&2; exit 1; }
grep -q '"source":"swarm"' "$LOG.a" || { echo "server.sh: trace lacks swarm provenance" >&2; exit 1; }

# A short swarm over the wire keeps some work in flight at SIGTERM time.
"$BIN" swarm "$ADDR" --clients 16 --requests 5 >/dev/null &
SWARM_PID=$!
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
wait "$SWARM_PID" 2>/dev/null || true
if [[ $rc -ne 0 ]]; then
    echo "server.sh: drain exited $rc, want 0" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q 'drained=true' "$LOG" || { echo "server.sh: no drain report" >&2; cat "$LOG" >&2; exit 1; }
SERVER_PID=
echo "server.sh: all verbs answered, metrics scraped, traces byte-identical, SIGTERM drained cleanly (exit 0)"

# ---- idle SIGTERM: nothing in flight, nothing ever sent ----------------
# The acceptor sits blocked in accept() and no client will ever unblock
# it, so only the drain's own wake-up can end it — the swarm in the leg
# above would hide a lost one. The wake-up is not an offer: offered=0.
: >"$LOG"
"$BIN" serve >"$LOG" 2>&1 &
SERVER_PID=$!
wait_addr "$LOG" >/dev/null
kill -TERM "$SERVER_PID"
for _ in $(seq 1 40); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.05
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server.sh: idle server still running 2 s after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
rc=0
wait "$SERVER_PID" || rc=$?
SERVER_PID=
if [[ $rc -ne 0 ]]; then
    echo "server.sh: idle drain exited $rc, want 0" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q 'drained=true .* offered=0 ' "$LOG" || { echo "server.sh: idle drain report is not drained=true offered=0" >&2; cat "$LOG" >&2; exit 1; }
echo "server.sh: idle server woke on SIGTERM and drained (exit 0, offered=0)"

# ---- kill -9 mid-swarm: write-ahead journal durability ----------------
# Boot with the WAL, ack two known writes, put a swarm in flight, then
# SIGKILL — no drain, no flush, the journal is all that survives.
: >"$LOG"
"$BIN" serve --chaos --capacity 64 --wal-dir "$WAL_DIR" >"$LOG" 2>&1 &
SERVER_PID=$!
ADDR=$(wait_addr "$LOG")
echo "server.sh: WAL server at $ADDR (journal in $WAL_DIR)"
req put --tenant acme --name k1 --kind text \
    --body '"survives-kill-9"' | grep -q '"status":"ok"'
req put --tenant acme --name k2 --kind log \
    --body '["first line","second line"]' | grep -q '"status":"ok"'
"$BIN" swarm "$ADDR" --clients 16 --requests 20 >/dev/null 2>&1 &
SWARM_PID=$!
sleep 0.2
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
wait "$SWARM_PID" 2>/dev/null || true
SERVER_PID=

# Restart on the same journal: the recovery line must report the
# replay, and both acked writes must read back byte-for-byte.
: >"$LOG"
"$BIN" serve --capacity 64 --wal-dir "$WAL_DIR" >"$LOG" 2>&1 &
SERVER_PID=$!
ADDR=$(wait_addr "$LOG")
grep -q '^recovery ' "$LOG" || { echo "server.sh: no recovery report after kill -9" >&2; cat "$LOG" >&2; exit 1; }
grep -m1 '^recovery ' "$LOG" | grep -q '"replayed"' || { echo "server.sh: recovery report lacks replay count" >&2; exit 1; }
req get --tenant acme --name k1 | grep -q 'survives-kill-9'
req get --tenant acme --name k2 | grep -q 'second line'
req metrics | grep -q 'lake_server_recovery_replayed_total'
req metrics | grep -q 'lake_server_wal_appended_total'
# The recovered server still drains cleanly.
kill -TERM "$SERVER_PID"
rc=0
wait "$SERVER_PID" || rc=$?
if [[ $rc -ne 0 ]]; then
    echo "server.sh: post-recovery drain exited $rc, want 0" >&2
    cat "$LOG" >&2
    exit 1
fi
SERVER_PID=
echo "server.sh: kill -9 mid-swarm, restart replayed the journal, acked writes intact"
