#!/usr/bin/env bash
# End-to-end smoke of the distributed efmd deployment: build the daemon,
# start two -worker processes and one -coordinator over them, submit a
# divide-and-conquer job through the HTTP API, check its fingerprint
# against a direct library run, resubmit it (every class runs again: the
# fleet caches no class results), resubmit it under a memory budget (its
# classes re-split on the workers as a direct budgeted run does), kill -9
# one worker, submit another job
# against the degraded fleet, and confirm the coordinator's /varz
# carries the per-worker dispatch counters.
#
# Needs curl and jq. Exits non-zero on the first failed assertion.
set -euo pipefail

PORT="${EFMD_PORT:-9178}"
WPORT1="${EFMD_WORKER_PORT1:-9179}"
WPORT2="${EFMD_WORKER_PORT2:-9180}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cd "$(dirname "$0")/.."

echo "== build"
go build -o "$WORKDIR/efmd" ./cmd/efmd
go build -o "$WORKDIR/efmcalc" ./cmd/efmcalc

echo "== direct library run (reference)"
"$WORKDIR/efmcalc" -model toy -algorithm dnc -qsub 2 -json > "$WORKDIR/direct.json"
REF_FP=$(jq -r .fingerprint "$WORKDIR/direct.json")
REF_MODES=$(jq -r .modes "$WORKDIR/direct.json")
echo "   $REF_MODES modes, fingerprint $REF_FP"

echo "== start 2 workers + coordinator"
"$WORKDIR/efmd" -worker -addr "127.0.0.1:$WPORT1" &
WORKER1_PID=$!
PIDS+=("$WORKER1_PID")
"$WORKDIR/efmd" -worker -addr "127.0.0.1:$WPORT2" &
PIDS+=($!)
"$WORKDIR/efmd" -coordinator -peers "127.0.0.1:$WPORT1,127.0.0.1:$WPORT2" \
  -addr "127.0.0.1:$PORT" -cache-mb 0 &
PIDS+=($!)
for i in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 100 ] && fail "coordinator never became healthy"
  sleep 0.1
done

echo "== submit dnc job to the full fleet"
ID=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"algorithm":"dnc","qsub":2}}' | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || fail "no job id in submit response"
LAST_STATE=$(curl -fsS "$BASE/v1/jobs/$ID/events" | tail -1 | jq -r .state)
[ "$LAST_STATE" = done ] || fail "fleet job ended $LAST_STATE, want done"
curl -fsS "$BASE/v1/jobs/$ID/result" > "$WORKDIR/result1.json"
GOT_FP=$(jq -r .summary.fingerprint "$WORKDIR/result1.json")
[ "$GOT_FP" = "$REF_FP" ] || fail "distributed fingerprint $GOT_FP != direct $REF_FP"
# The job's own scheduler block says where its classes ran (/varz only
# has the sum over jobs).
JOB_REMOTE=$(jq -r '.summary.scheduler.remote_classes // 0' "$WORKDIR/result1.json")
[ "$JOB_REMOTE" -gt 0 ] || fail "result's scheduler.remote_classes is $JOB_REMOTE on a fleet job"
echo "   job $ID done, fingerprint matches, $JOB_REMOTE classes ran on workers"

echo "== /varz shows remote dispatch"
curl -fsS "$BASE/varz" > "$WORKDIR/varz1.json"
REMOTE=$(jq -r .counters.remote_classes "$WORKDIR/varz1.json")
[ "$REMOTE" -gt 0 ] || fail "remote_classes is $REMOTE after a distributed job"
NWORKERS=$(jq -r '.workers | length' "$WORKDIR/varz1.json")
[ "$NWORKERS" = 2 ] || fail "/varz lists $NWORKERS workers, want 2"
DISPATCHED=$(jq -r '[.workers[].dispatched] | add' "$WORKDIR/varz1.json")
[ "$DISPATCHED" -gt 0 ] || fail "no classes dispatched to any worker"
echo "   $REMOTE classes on $NWORKERS workers ($DISPATCHED dispatched)"

echo "== wire and payload bytes are counted"
PAYLOAD=$(jq -r .remote_payload_bytes "$WORKDIR/varz1.json")
WIRE=$(jq -r .remote_wire_bytes "$WORKDIR/varz1.json")
[ "$PAYLOAD" -gt 0 ] || fail "remote_payload_bytes is $PAYLOAD after a distributed job"
[ "$WIRE" -gt 0 ] || fail "remote_wire_bytes is $WIRE after a distributed job"
# Toy classes return less than the 512 bytes result compression starts
# at, so here wire is payload plus framing; internal/distrib's
# TestPoolWireAccounting has the job where wire < payload.
echo "   $WIRE wire bytes for $PAYLOAD payload bytes"

echo "== resubmit the identical request: no cache anywhere, every class recomputed"
# The coordinator runs -cache-mb 0 and workers keep no class results, so
# the repeat is a second full run: same fingerprint, twice the classes.
ID_RE=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"algorithm":"dnc","qsub":2}}' | jq -r .id)
LAST_STATE=$(curl -fsS "$BASE/v1/jobs/$ID_RE/events" | tail -1 | jq -r .state)
[ "$LAST_STATE" = done ] || fail "repeated job ended $LAST_STATE, want done"
GOT_FP_RE=$(curl -fsS "$BASE/v1/jobs/$ID_RE/result" | jq -r .summary.fingerprint)
[ "$GOT_FP_RE" = "$REF_FP" ] || fail "repeated job's fingerprint $GOT_FP_RE != direct $REF_FP"
REMOTE_RE=$(curl -fsS "$BASE/varz" | jq -r .counters.remote_classes)
[ "$REMOTE_RE" = $((2 * REMOTE)) ] || fail "remote_classes is $REMOTE_RE after the repeat, want $((2 * REMOTE)) (twice the first job's $REMOTE)"
echo "   job $ID_RE done, fingerprint matches, remote_classes $REMOTE -> $REMOTE_RE"

echo "== resubmit it under a memory budget: same key, the workers honour the new budget"
# mem_budget_bytes is not part of the request key, and the workers have
# now served this key twice without one.
"$WORKDIR/efmcalc" -model toy -algorithm dnc -qsub 2 -mem-budget 1 -json > "$WORKDIR/direct_budget.json"
ID_MB=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"algorithm":"dnc","qsub":2,"mem_budget_bytes":1}}' | jq -r .id)
LAST_STATE=$(curl -fsS "$BASE/v1/jobs/$ID_MB/events" | tail -1 | jq -r .state)
[ "$LAST_STATE" = done ] || fail "budgeted job ended $LAST_STATE, want done"
curl -fsS "$BASE/v1/jobs/$ID_MB/result" > "$WORKDIR/result_budget.json"
[ "$(jq -r .summary.fingerprint "$WORKDIR/result_budget.json")" = "$REF_FP" ] || fail "budgeted job's fingerprint differs from direct $REF_FP"
for f in mem_resplits enqueued; do
  WANT=$(jq -r ".scheduler.$f" "$WORKDIR/direct_budget.json")
  GOT=$(jq -r ".summary.scheduler.$f" "$WORKDIR/result_budget.json")
  [ "$WANT" -gt 0 ] || fail "efmcalc -mem-budget 1 reports scheduler.$f = $WANT"
  [ "$GOT" = "$WANT" ] || fail "budgeted fleet job has scheduler.$f = $GOT, efmcalc -mem-budget 1 has $WANT (workers ran it under an earlier job's options)"
done
echo "   job $ID_MB done, $(jq -c '.summary.scheduler | {enqueued, mem_resplits}' "$WORKDIR/result_budget.json") as in the direct run"

echo "== kill -9 one worker, run against the degraded fleet"
kill -9 "$WORKER1_PID" 2>/dev/null || true
wait "$WORKER1_PID" 2>/dev/null || true
# A mode budget (never reached on toy) forks the request key: no
# coalescing, no cache.
ID2=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"algorithm":"dnc","qsub":2,"max_modes":1000000}}' | jq -r .id)
LAST_STATE=$(curl -fsS "$BASE/v1/jobs/$ID2/events" | tail -1 | jq -r .state)
[ "$LAST_STATE" = done ] || fail "degraded-fleet job ended $LAST_STATE, want done"
GOT_FP2=$(curl -fsS "$BASE/v1/jobs/$ID2/result" | jq -r .summary.fingerprint)
[ "$GOT_FP2" = "$REF_FP" ] || fail "degraded-fleet fingerprint $GOT_FP2 != direct $REF_FP"
DEAD=$(curl -fsS "$BASE/varz" | jq -r '[.workers[] | select(.alive == false)] | length')
[ "$DEAD" -ge 1 ] || fail "/varz still shows every worker alive after the kill"
echo "   job $ID2 done on the surviving worker, fingerprint matches ($DEAD worker marked dead)"

echo "PASS: efmd cluster smoke"
