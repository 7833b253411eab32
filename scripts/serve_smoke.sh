#!/bin/sh
# serve_smoke.sh — boots the neurofail query service against a fresh
# store, verifies /healthz and one /v1/bounds certificate, submits a
# long Monte Carlo job, and checks the server exits cleanly on SIGTERM
# while that job is still resident (graceful shutdown).
#
# Usage: serve_smoke.sh <path-to-neurofail-binary>
set -eu

BIN=${1:?usage: serve_smoke.sh <neurofail binary>}
DIR=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "== train a tiny network and ingest it into the store"
"$BIN" train -target sine -widths 8 -epochs 40 -seed 1 -out "$DIR/net.json" >/dev/null
ID=$("$BIN" store add -dir "$DIR/store" -net "$DIR/net.json")
echo "   stored as ${ID}"

echo "== boot the service"
"$BIN" serve -addr 127.0.0.1:0 -store "$DIR/store" 2>"$DIR/serve.log" &
PID=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/.*listening on //p' "$DIR/serve.log" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "server died:"; cat "$DIR/serve.log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; cat "$DIR/serve.log"; exit 1; }
echo "   listening on $ADDR"

echo "== GET /healthz"
HEALTH=$(curl -sf "http://$ADDR/healthz")
echo "   $HEALTH"
echo "$HEALTH" | grep -q '"status": "ok"' || { echo "unexpected health payload"; exit 1; }

echo "== POST /v1/bounds"
BOUNDS=$(curl -sf -X POST "http://$ADDR/v1/bounds" \
    -H 'Content-Type: application/json' \
    -d "{\"network_id\": \"$ID\", \"faults\": 1, \"c\": 1}")
echo "   $BOUNDS"
echo "$BOUNDS" | grep -q '"fep"' || { echo "bounds response missing fep"; exit 1; }

echo "== POST /v1/jobs (a Monte Carlo campaign that outlives the smoke)"
JOB=$(curl -sf -X POST "http://$ADDR/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d "{\"kind\": \"montecarlo\", \"request\": {\"network_id\": \"$ID\", \"trials\": 200000, \"seed\": 1}}")
echo "$JOB" | grep '"state"' | sed 's/^ */   /'
echo "$JOB" | grep -Eq '"state": "(queued|running)"' || { echo "job not resident"; exit 1; }

echo "== graceful shutdown (SIGTERM) with the job resident"
kill -TERM "$PID"
WAITED=0
while kill -0 "$PID" 2>/dev/null; do
    WAITED=$((WAITED + 1))
    [ $WAITED -gt 150 ] && { echo "server did not exit within 15 s"; exit 1; }
    sleep 0.1
done
wait "$PID" 2>/dev/null || { echo "server exited non-zero"; exit 1; }
PID=""
echo "serve smoke: OK"
