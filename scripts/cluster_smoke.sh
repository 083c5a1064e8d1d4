#!/usr/bin/env bash
# Multi-process loopback e2e of the fleet layer: build p4wnd + p4wn, start
# three worker daemons and a coordinator in front of them, and assert
#
#   1. the coordinator answers the liveness/readiness probes and names its
#      role, and `p4wn cluster status` sees every shard ready;
#   2. profiles routed through the coordinator are identical to both a
#      single-node daemon and the offline `p4wn profile` output for a
#      program x target matrix (compared via jq, modulo run-local timing
#      and job metadata);
#   3. the coordinator /metrics exposition carries the per-shard cluster
#      series and passes the Prometheus format lint (promlint);
#   4. kill -9 on the worker running a job only degrades the fleet: the
#      job is re-routed, finishes, and its profile still matches offline;
#   5. SIGTERM on the coordinator drains cleanly (exit 0) with a job in
#      flight on the remaining workers;
#   6. a fixed batch gets faster as the fleet grows: 1/2/3-worker wall
#      times land in CLUSTER_<date>.json for CI to archive.
#
# Requires: go, curl, jq. Run from anywhere; it cds to the repo root.
set -euo pipefail

cd "$(cd "$(dirname "$0")/.." && pwd)"

BASE_PORT="${P4WND_CLUSTER_PORT:-18490}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "cluster_smoke: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$WORK/p4wn" ./cmd/p4wn
go build -o "$WORK/p4wnd" ./cmd/p4wnd
go build -o "$WORK/promlint" ./cmd/promlint

# start_worker <name> <port> [extra p4wnd flags...] -> appends to PIDS and
# records the pid in $WORK/<name>.pid. Each daemon gets its own store.
start_worker() {
  local name=$1 port=$2; shift 2
  "$WORK/p4wnd" -addr "127.0.0.1:$port" -store "$WORK/store-$name" \
    -log-format json "$@" >"$WORK/$name.log" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  echo "$pid" >"$WORK/$name.pid"
}

wait_healthy() {
  local url=$1 name=$2
  for _ in $(seq 1 150); do
    curl -fs "$url/v1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "$name never became healthy at $url (log: $(tail -3 "$WORK/$name.log" 2>/dev/null))"
}

W1=$BASE_PORT; W2=$((BASE_PORT + 1)); W3=$((BASE_PORT + 2))
COORD=$((BASE_PORT + 3)); SINGLE=$((BASE_PORT + 4))
CBASE="http://127.0.0.1:$COORD"
SBASE="http://127.0.0.1:$SINGLE"

echo "== start 3 workers + coordinator + single-node reference"
start_worker w1 "$W1"
start_worker w2 "$W2"
start_worker w3 "$W3"
start_worker single "$SINGLE"
wait_healthy "http://127.0.0.1:$W1" w1
wait_healthy "http://127.0.0.1:$W2" w2
wait_healthy "http://127.0.0.1:$W3" w3
wait_healthy "$SBASE" single
start_worker coord "$COORD" -coordinator \
  -workers "127.0.0.1:$W1,127.0.0.1:$W2,127.0.0.1:$W3" -heartbeat 250ms
wait_healthy "$CBASE" coord

echo "== coordinator probes and shard visibility"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$CBASE/healthz")" = "200" ] \
  || fail "coordinator /healthz is not 200"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$CBASE/readyz")" = "200" ] \
  || fail "coordinator /readyz is not 200"
curl -fs "$CBASE/v1/healthz" | jq -e '.role == "coordinator"' >/dev/null \
  || fail "coordinator /v1/healthz does not name its role"
for _ in $(seq 1 50); do
  READY=$("$WORK/p4wn" cluster status -addr "$CBASE" -json | jq '[.shards[] | select(.ready)] | length')
  [ "$READY" = "3" ] && break
  sleep 0.1
done
[ "$READY" = "3" ] || fail "cluster status sees $READY/3 shards ready"
echo "   role=coordinator, 3/3 shards ready"

echo "== byte-identity: coordinator vs single node vs offline"
# Everything except run-local timing and the job block must agree.
PROFILE_VIEW='{schema_version, kind, program, options, converged, coverage, nodes, ifc}'
CHECKED=0
for prog in "copy-to-cpu" "resubmit" "encap" "simple_router"; do
  for tgt in idealized tofino; do
    slug=$(echo "$prog-$tgt" | tr -c 'a-zA-Z0-9' '_')
    "$WORK/p4wn" profile -prog "$prog" -target "$tgt" \
      -report "$WORK/off-$slug.json" >/dev/null 2>&1
    "$WORK/p4wn" submit -addr "$CBASE" -prog "$prog" -target-model "$tgt" -follow \
      >"$WORK/clu-$slug.json" 2>/dev/null
    "$WORK/p4wn" submit -addr "$SBASE" -prog "$prog" -target-model "$tgt" -follow \
      >"$WORK/one-$slug.json" 2>/dev/null
    jq -S "$PROFILE_VIEW" "$WORK/off-$slug.json" >"$WORK/off-$slug.view"
    jq -S "$PROFILE_VIEW" "$WORK/clu-$slug.json" >"$WORK/clu-$slug.view"
    jq -S "$PROFILE_VIEW" "$WORK/one-$slug.json" >"$WORK/one-$slug.view"
    diff -u "$WORK/off-$slug.view" "$WORK/clu-$slug.view" >&2 \
      || fail "coordinator profile differs from offline for $prog/$tgt"
    diff -u "$WORK/one-$slug.view" "$WORK/clu-$slug.view" >&2 \
      || fail "coordinator profile differs from single node for $prog/$tgt"
    CHECKED=$((CHECKED + 1))
  done
done
echo "   $CHECKED program x target cells identical across all three paths"

echo "== coordinator metrics: per-shard cluster series + promlint"
curl -fs "$CBASE/metrics" >"$WORK/coord.metrics"
for series in cluster_forwards cluster_jobs_done cluster_enqueued; do
  grep -q "^$series" "$WORK/coord.metrics" \
    || fail "/metrics is missing the $series series"
done
grep -q "^cluster_forwards{shard=" "$WORK/coord.metrics" \
  || fail "cluster_forwards carries no shard label"
"$WORK/promlint" "$CBASE/metrics" || fail "coordinator /metrics fails promlint"
FWD_TOTAL=$("$WORK/p4wn" cluster status -addr "$CBASE" -json | jq '[.shards[].forwards] | add')
[ "$FWD_TOTAL" -ge "$CHECKED" ] || fail "only $FWD_TOTAL forwards recorded for $CHECKED jobs"

echo "== kill -9 the worker running a job; the fleet must only degrade"
# Blink is ~10s of engine work: plenty of time to observe which shard got
# it and to murder that worker mid-run.
KILL_OUT=$("$WORK/p4wn" submit -addr "$CBASE" -prog "Blink (S5)")
KILL_ID=$(echo "$KILL_OUT" | awk '{print $1}')
VICTIM=""
for _ in $(seq 1 100); do
  VICTIM=$("$WORK/p4wn" cluster status -addr "$CBASE" -json \
    | jq -r '.shards[] | select(.dispatched > 0) | .addr' | head -1)
  [ -n "$VICTIM" ] && break
  sleep 0.1
done
[ -n "$VICTIM" ] || fail "no shard ever showed the Blink job dispatched"
VICTIM_PORT="${VICTIM##*:}"
case "$VICTIM_PORT" in
  "$W1") VICTIM_PID=$(cat "$WORK/w1.pid") ;;
  "$W2") VICTIM_PID=$(cat "$WORK/w2.pid") ;;
  "$W3") VICTIM_PID=$(cat "$WORK/w3.pid") ;;
  *) fail "victim shard $VICTIM maps to no worker" ;;
esac
sleep 1  # let the job actually start executing on the victim
kill -9 "$VICTIM_PID"
echo "   killed $VICTIM (pid $VICTIM_PID) with job $KILL_ID in flight"
DONE=0
for _ in $(seq 1 600); do
  if "$WORK/p4wn" status -addr "$CBASE" -id "$KILL_ID" 2>/dev/null | grep -q done; then
    DONE=1; break
  fi
  sleep 0.2
done
[ "$DONE" = "1" ] || fail "job $KILL_ID never finished after its worker was killed"
RETRIES=$("$WORK/p4wn" cluster status -addr "$CBASE" -json | jq '[.shards[].retries] | add')
[ "$RETRIES" -ge 1 ] || fail "worker kill recorded no retries"
"$WORK/p4wn" result -addr "$CBASE" -id "$KILL_ID" -o "$WORK/blink-cluster.json" 2>/dev/null
"$WORK/p4wn" profile -prog "Blink (S5)" -report "$WORK/blink-offline.json" >/dev/null 2>&1
jq -S "$PROFILE_VIEW" "$WORK/blink-cluster.json" >"$WORK/blink-cluster.view"
jq -S "$PROFILE_VIEW" "$WORK/blink-offline.json" >"$WORK/blink-offline.view"
diff -u "$WORK/blink-offline.view" "$WORK/blink-cluster.view" >&2 \
  || fail "re-routed job's profile differs from offline"
echo "   job re-routed (retries=$RETRIES), profile still identical to offline"

echo "== SIGTERM drain with a job in flight on the surviving workers"
DRAIN_OUT=$("$WORK/p4wn" submit -addr "$CBASE" -prog "Blink (S5)" -seed 5)
DRAIN_ID=$(echo "$DRAIN_OUT" | awk '{print $1}')
for _ in $(seq 1 100); do
  "$WORK/p4wn" status -addr "$CBASE" -id "$DRAIN_ID" 2>/dev/null | grep -q running && break
  sleep 0.1
done
COORD_PID=$(cat "$WORK/coord.pid")
kill -TERM "$COORD_PID"
# Draining: not-ready for the balancer, still live for the orchestrator.
code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 1 "$CBASE/readyz" || true)
if kill -0 "$COORD_PID" 2>/dev/null && [ "$code" != "503" ]; then
  fail "coordinator /readyz answered $code while draining"
fi
if ! wait "$COORD_PID"; then fail "coordinator exited nonzero on drain"; fi
echo "   coordinator drained cleanly with a job in flight"

for w in w1 w2 w3 single; do
  kill "$(cat "$WORK/$w.pid")" 2>/dev/null || true
done

echo "== throughput: the same batch on 1, 2, and 3 workers"
# 12 distinct NetCache jobs, one single-threaded engine job per worker at
# a time (-jobs 1 -workers 1), so on a multi-core host the wall time tracks
# fleet size instead of the engines fighting over shared cores. Fresh
# stores every round keep every run a real engine run. -steal-load 2
# spreads the batch when the ring hashes it unevenly.
BATCH_PROG="NetCache (S6)"
BATCH_N=12
ROUNDS_JSON="[]"
for NW in 1 2 3; do
  RPORT=$((BASE_PORT + 10))
  RADDRS=""
  for i in $(seq 1 "$NW"); do
    start_worker "r$NW-w$i" $((RPORT + i)) -jobs 1 -workers 1
    RADDRS="${RADDRS:+$RADDRS,}127.0.0.1:$((RPORT + i))"
  done
  for i in $(seq 1 "$NW"); do
    wait_healthy "http://127.0.0.1:$((RPORT + i))" "r$NW-w$i"
  done
  start_worker "r$NW-coord" $((RPORT + 8)) -coordinator -workers "$RADDRS" \
    -heartbeat 250ms -steal-load 2
  RBASE="http://127.0.0.1:$((RPORT + 8))"
  wait_healthy "$RBASE" "r$NW-coord"

  T0=$(date +%s.%N)
  # Raw curl keeps the submit loop off the measured path (a p4wn process
  # per job would swamp the engine time for small batches).
  for seed in $(seq 101 $((100 + BATCH_N))); do
    curl -fs -X POST "$RBASE/v1/jobs" -H 'Content-Type: application/json' \
      -d "{\"program\": \"$BATCH_PROG\", \"options\": {\"seed\": $seed}}" >/dev/null \
      || fail "round $NW: submit seed=$seed refused"
  done
  DONE_N=0
  for _ in $(seq 1 1200); do
    DONE_N=$(curl -fs "$RBASE/v1/jobs" | jq '[.jobs[] | select(.state == "done")] | length')
    [ "$DONE_N" -ge "$BATCH_N" ] && break
    sleep 0.05
  done
  [ "$DONE_N" -ge "$BATCH_N" ] \
    || fail "round $NW: only $DONE_N/$BATCH_N jobs finished"
  T1=$(date +%s.%N)
  WALL=$(awk -v a="$T0" -v b="$T1" 'BEGIN{printf "%.3f", b-a}')
  echo "   $NW worker(s): ${WALL}s for $BATCH_N jobs"
  ROUNDS_JSON=$(jq -c --argjson w "$NW" --argjson n "$BATCH_N" --argjson s "$WALL" \
    '. + [{workers: $w, jobs: $n, wall_sec: $s}]' <<<"$ROUNDS_JSON")
  for i in $(seq 1 "$NW"); do kill "$(cat "$WORK/r$NW-w$i.pid")" 2>/dev/null || true; done
  kill "$(cat "$WORK/r$NW-coord.pid")" 2>/dev/null || true
  wait 2>/dev/null || true
done

REPORT="CLUSTER_$(date -u +%Y-%m-%d).json"
jq -n --argjson rounds "$ROUNDS_JSON" \
  --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --arg prog "$BATCH_PROG" \
  '{generated_at: $date, batch_program: $prog, rounds: $rounds}' >"$REPORT"
echo "   wrote $REPORT"

# The fleet must not get slower as it grows. On a single-core host the
# rounds come out flat (the engines share the one CPU), so this asserts
# no coordination blowup rather than a strict speedup; multi-core hosts
# see the real scaling curve.
W1S=$(jq '.rounds[0].wall_sec' "$REPORT")
W3S=$(jq '.rounds[2].wall_sec' "$REPORT")
awk -v a="$W1S" -v b="$W3S" 'BEGIN{exit !(b <= a * 1.25)}' \
  || fail "3 workers (${W3S}s) much slower than 1 worker (${W1S}s)"

echo "cluster_smoke: PASS"
