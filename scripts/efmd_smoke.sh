#!/usr/bin/env bash
# End-to-end smoke of the efmd job service: build the daemon and the
# CLI, start the daemon, submit a job over HTTP, follow its event
# stream, check the result fingerprint against a direct library run
# (efmcalc -json emits the same summary schema), spill a budgeted job
# and find the spill directory empty, resubmit to hit the
# content-addressed cache without a driver run, stream a ranked
# on-demand job and serve a shorter k from its cache entry, exercise
# cancellation, and shut down gracefully on SIGTERM.
#
# Needs curl and jq. Exits non-zero on the first failed assertion.
set -euo pipefail

PORT="${EFMD_PORT:-9178}"
BASE="http://127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

cd "$(dirname "$0")/.."

echo "== build"
go build -o "$WORKDIR/efmd" ./cmd/efmd
go build -o "$WORKDIR/efmcalc" ./cmd/efmcalc

echo "== direct library run (reference)"
"$WORKDIR/efmcalc" -model toy -json > "$WORKDIR/direct.json"
REF_FP=$(jq -r .fingerprint "$WORKDIR/direct.json")
REF_MODES=$(jq -r .modes "$WORKDIR/direct.json")
echo "   $REF_MODES modes, fingerprint $REF_FP"

echo "== a missing spill directory stops the daemon at start-up"
RC=0
timeout 1 "$WORKDIR/efmd" -addr "127.0.0.1:$PORT" -spill-dir "$WORKDIR/nope" 2> "$WORKDIR/nope.err" || RC=$?
[ "$RC" != 0 ] && [ "$RC" != 124 ] || fail "efmd -spill-dir <missing> exited $RC, want a start-up failure"
grep -q "$WORKDIR/nope" "$WORKDIR/nope.err" || fail "start-up failure does not name the directory: $(cat "$WORKDIR/nope.err")"
echo "   exit $RC: $(cat "$WORKDIR/nope.err")"

echo "== start daemon on :$PORT"
mkdir "$WORKDIR/spill"
"$WORKDIR/efmd" -addr "127.0.0.1:$PORT" -concurrency 2 -spill-dir "$WORKDIR/spill" &
DAEMON_PID=$!
for i in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 100 ] && fail "daemon never became healthy"
  sleep 0.1
done

echo "== submit job over HTTP"
ID=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy"}' | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || fail "no job id in submit response"
echo "   job $ID"

echo "== stream events until terminal"
curl -fsS "$BASE/v1/jobs/$ID/events" > "$WORKDIR/events.ndjson"
FIRST_STATE=$(head -1 "$WORKDIR/events.ndjson" | jq -r .state)
LAST_STATE=$(tail -1 "$WORKDIR/events.ndjson" | jq -r .state)
[ "$FIRST_STATE" = queued ] || fail "stream opened with state $FIRST_STATE, want queued"
[ "$LAST_STATE" = done ] || fail "stream ended with state $LAST_STATE, want done"
echo "   $(wc -l < "$WORKDIR/events.ndjson") events, $FIRST_STATE -> $LAST_STATE"

echo "== fetch result, compare with direct run"
curl -fsS "$BASE/v1/jobs/$ID/result?supports=1" > "$WORKDIR/result.json"
GOT_FP=$(jq -r .summary.fingerprint "$WORKDIR/result.json")
GOT_MODES=$(jq -r .summary.modes "$WORKDIR/result.json")
N_SUPPORTS=$(jq -r '.supports | length' "$WORKDIR/result.json")
[ "$GOT_FP" = "$REF_FP" ] || fail "service fingerprint $GOT_FP != direct $REF_FP"
[ "$GOT_MODES" = "$REF_MODES" ] || fail "service modes $GOT_MODES != direct $REF_MODES"
[ "$N_SUPPORTS" = "$REF_MODES" ] || fail "$N_SUPPORTS supports for $REF_MODES modes"
# The stat blocks are nested (store / scheduler / revsearch / ondemand);
# the flattened store_* names must not come back beside them.
jq -e '.summary | has("store_spills") | not' "$WORKDIR/result.json" >/dev/null \
  || fail "summary still carries a flattened store_* field"
echo "   fingerprints match"

echo "== a one-byte memory budget spills every round and leaves no file"
# max_modes (never reached on toy) only forks the cache key (a memory
# budget does not), so this job runs instead of being served the result
# above.
BID=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"mem_budget_bytes":1,"max_modes":1000000}}' | jq -r .id)
curl -fsS "$BASE/v1/jobs/$BID/events" > /dev/null
curl -fsS "$BASE/v1/jobs/$BID/result" > "$WORKDIR/budget.json"
[ "$(jq -r .summary.fingerprint "$WORKDIR/budget.json")" = "$REF_FP" ] || fail "budgeted fingerprint diverged"
jq -e '.summary.store.spills > 0' "$WORKDIR/budget.json" >/dev/null \
  || fail "one-byte budget never spilled: $(jq -c .summary.store "$WORKDIR/budget.json")"
jq -e '.summary.store | has("compressions") | not' "$WORKDIR/budget.json" >/dev/null \
  || fail "store block still reports compressions"
curl -fsS "$BASE/varz" | jq -e '(.counters.store_spills > 0) and (.counters | has("store_compressions") | not)' >/dev/null \
  || fail "/varz store counters wrong: $(curl -fsS "$BASE/varz" | jq -c .counters)"
[ -z "$(ls -A "$WORKDIR/spill")" ] || fail "spill directory not empty with the daemon up: $(ls -A "$WORKDIR/spill")"
echo "   $(jq -r .summary.store.spills "$WORKDIR/budget.json") spills, spill directory empty"

echo "== resubmit: cache hit, no driver run"
RUNS_BEFORE=$(curl -fsS "$BASE/varz" | jq -r .counters.runs_started)
HIT=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"algorithm":"dnc","nodes":2}}')
[ "$(echo "$HIT" | jq -r .cached)" = true ] || fail "resubmission not served from cache: $HIT"
[ "$(echo "$HIT" | jq -r .state)" = done ] || fail "cache-hit job not done"
[ "$(echo "$HIT" | jq -r .fingerprint)" = "$REF_FP" ] || fail "cached fingerprint diverged"
RUNS_AFTER=$(curl -fsS "$BASE/varz" | jq -r .counters.runs_started)
[ "$RUNS_BEFORE" = "$RUNS_AFTER" ] || fail "cache hit started a driver run ($RUNS_BEFORE -> $RUNS_AFTER)"
[ "$(curl -fsS "$BASE/varz" | jq -r .counters.cache_hits)" = 1 ] || fail "cache_hits counter != 1"
echo "   served from cache (runs_started stayed $RUNS_AFTER; execution-shape options did not fork the key)"

echo "== removed and oversized options answer 400, and the daemon keeps serving"
status_of() { curl -sS -o /dev/null -w '%{http_code}' --max-time 1 "$BASE/v1/jobs" -d "$1"; }
# The second elementarity test, the prefilter switch, the split
# formulation and the zero tolerance are gone from the API: a client
# naming them must hear so, not silently get the one engine there is.
for BODY in '{"model":"toy","options":{"test":"tree"}}' '{"model":"toy","options":{"no_hybrid":true}}' \
            '{"model":"toy","options":{"split":true}}' '{"model":"toy","options":{"tolerance":1e-7}}'; do
  CODE=$(status_of "$BODY") || fail "no answer within a second to $BODY"
  [ "$CODE" = 400 ] || fail "$BODY answered $CODE, want 400 (unknown field)"
done
# nodes used to go straight into an allocation size (200000^2 channels).
CODE=$(status_of '{"model":"toy","options":{"algorithm":"parallel","nodes":200000}}') \
  || fail "oversized nodes request not answered within a second"
[ "$CODE" = 400 ] || fail "nodes=200000 answered $CODE, want 400"
# Values the distrib class frame cannot carry: admitted, they would make
# every worker of a coordinator drop its link.
for OPTS in '"workers":-1' '"comm_timeout_seconds":90000'; do
  CODE=$(status_of "{\"model\":\"toy\",\"options\":{\"algorithm\":\"dnc\",$OPTS}}") \
    || fail "$OPTS request not answered within a second"
  [ "$CODE" = 400 ] || fail "$OPTS answered $CODE, want 400"
done
NEXT=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy"}')
[ "$(echo "$NEXT" | jq -r .fingerprint)" = "$REF_FP" ] || fail "daemon did not serve the next toy job: $NEXT"
echo "   test=tree, no_hybrid, split, tolerance, nodes=200000, workers=-1 and a 25 h comm timeout refused; next toy job served"

echo "== cancel a job"
CID=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"max_modes":1000001}}' | jq -r .id)
curl -fsS -X DELETE "$BASE/v1/jobs/$CID" >/dev/null
CSTATE=$(curl -fsS "$BASE/v1/jobs/$CID/events" | tail -1 | jq -r .state)
case "$CSTATE" in
  canceled|done) echo "   job $CID ended $CSTATE" ;; # done if it outraced the DELETE
  *) fail "canceled job ended in state $CSTATE" ;;
esac

echo "== on-demand stream: backend=ondemand k=3 delivers 3 mode events"
OID=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"backend":"ondemand","k":3}}' | jq -r .id)
[ -n "$OID" ] && [ "$OID" != null ] || fail "no job id for the on-demand submission"
curl -fsSN "$BASE/v1/jobs/$OID/events" > "$WORKDIR/odevents.ndjson"
N_MODE=$(jq -rs '[.[] | select(.type == "mode")] | length' "$WORKDIR/odevents.ndjson")
[ "$N_MODE" = 3 ] || fail "on-demand k=3 streamed $N_MODE mode events, want 3"
RANKS=$(jq -rs '[.[] | select(.type == "mode") | .rank] | join(",")' "$WORKDIR/odevents.ndjson")
[ "$RANKS" = "1,2,3" ] || fail "mode events out of rank order: $RANKS"
LAST_MODE_SEQ=$(jq -rs '[.[] | select(.type == "mode") | .seq] | max' "$WORKDIR/odevents.ndjson")
TERM_SEQ=$(tail -1 "$WORKDIR/odevents.ndjson" | jq -r .seq)
[ "$(tail -1 "$WORKDIR/odevents.ndjson" | jq -r .state)" = done ] || fail "on-demand job did not finish done"
[ "$LAST_MODE_SEQ" -lt "$TERM_SEQ" ] || fail "mode events did not precede the terminal event"
curl -fsS "$BASE/v1/jobs/$OID/result" > "$WORKDIR/odresult.json"
OD_MODES=$(jq -r .summary.modes "$WORKDIR/odresult.json")
[ "$OD_MODES" = 3 ] || fail "on-demand result holds $OD_MODES modes, want 3"
jq -e '.summary.ondemand.emitted == 3 and .summary.ondemand.bases > 0' "$WORKDIR/odresult.json" >/dev/null \
  || fail "on-demand summary lacks its ondemand block: $(jq -c .summary "$WORKDIR/odresult.json")"
echo "   3 mode events (ranks $RANKS) before the terminal event"

echo "== on-demand k=2 after k=3: served from the family's cache entry, no driver run"
RUNS_BEFORE=$(curl -fsS "$BASE/varz" | jq -r .counters.runs_started)
PHIT=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"toy","options":{"backend":"ondemand","k":2}}')
[ "$(echo "$PHIT" | jq -r .cached)" = true ] || fail "k=2 not served from the k=3 stream: $PHIT"
curl -fsS "$BASE/varz" > "$WORKDIR/varz.json"
[ "$(jq -r .counters.runs_started "$WORKDIR/varz.json")" = "$RUNS_BEFORE" ] || fail "k=2 started a driver run"
[ "$(jq -r .counters.prefix_hits "$WORKDIR/varz.json")" = 1 ] || fail "prefix_hits counter != 1: $(jq -c .counters "$WORKDIR/varz.json")"
jq -e 'has("prefix_cache") | not' "$WORKDIR/varz.json" >/dev/null || fail "/varz still has a prefix_cache block"
echo "   cached, prefix_hits 1, runs_started stayed $RUNS_BEFORE, one cache block on /varz"

echo "== on-demand cancel mid-stream resolves in under a second"
CID2=$(curl -fsS "$BASE/v1/jobs" -d '{"model":"yeast1","options":{"backend":"ondemand","k":100000}}' | jq -r .id)
# -N: without it curl holds the stream in a 4 KiB stdout buffer, and the
# first mode event (server-side after ~0.1 s) reaches the file ~9-10 s in.
curl -fsSN "$BASE/v1/jobs/$CID2/events" > "$WORKDIR/cancel.ndjson" &
STREAM_PID=$!
for i in $(seq 1 100); do
  grep -q '"type":"mode"' "$WORKDIR/cancel.ndjson" 2>/dev/null && break
  [ "$i" = 100 ] && fail "no mode event arrived on yeast1 within 10s"
  sleep 0.1
done
T0=$(date +%s%N)
curl -fsS -X DELETE "$BASE/v1/jobs/$CID2" >/dev/null
wait "$STREAM_PID" || true
T1=$(date +%s%N)
ELAPSED_MS=$(( (T1 - T0) / 1000000 ))
CSTATE2=$(tail -1 "$WORKDIR/cancel.ndjson" | jq -r .state)
[ "$CSTATE2" = canceled ] || fail "mid-stream cancel ended in state $CSTATE2"
[ "$ELAPSED_MS" -lt 1000 ] || fail "cancel took ${ELAPSED_MS}ms, want < 1000ms"
echo "   canceled mid-stream in ${ELAPSED_MS}ms"

echo "== graceful shutdown on SIGTERM"
kill -TERM "$DAEMON_PID"
for i in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  [ "$i" = 100 ] && fail "daemon did not exit after SIGTERM"
  sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "PASS: efmd smoke"
