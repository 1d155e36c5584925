#!/usr/bin/env bash
# The paper's measured tables from the shipped CLIs: runs efmcalc -json
# over a fixed list of configurations, prints one JSON array of
# {label, args, summary} records (summary is efmcalc's -json object, the
# efmd result schema) and checks the paper's invariants with jq. The
# -verify run's record also carries verify_seconds (its invocation's wall
# minus summary.elapsed_seconds) and verify_seconds_per_mode.
#
#   bash scripts/longrun.sh quick   # a synthetic efmgen network, seconds
#   bash scripts/longrun.sh full    # Network I and II, ~37 min on 2 CPUs
#                                   # (the committed record is docs/longrun.json)
#
# Labels name the table a record feeds: table2 (Algorithm 2 and the serial
# engine), table3 (Algorithm 3 on the paper's partition), iva (the auto
# partition, for the cumulative-candidate ratio of section IV-A), table4
# (Network II under a mode budget). Section IV-B reads peak_node_bytes
# off the same records.
#
# Checks, each exiting non-zero with a FAIL line on stderr:
#   - Algorithm 2: modes, fingerprint, candidate_modes and pairs_visited
#     are equal across every serial and parallel run of one reduction;
#   - the -verify run re-checks every mode in exact arithmetic and exits
#     non-zero on the first violation (set -e);
#   - Algorithm 3: each dnc run's subproblems[].efms sum to its modes and,
#     when nothing is unresolved, to the serial run's modes on the serial
#     fingerprint;
#   - the budgeted run re-splits at least one class and enumerates at
#     least one, and its union is the serial set when nothing is
#     unresolved;
#   - full only: Network I on the paper's Table III partition, R36r,R29r
#     in our names, with duplicates kept, has exactly the paper's class
#     counts 274919 / 599344 / 207533 / 433518, in the record's class
#     order.
#
# Needs go and jq. Progress goes to stderr; stdout is the JSON array.
set -euo pipefail

MODE="${1:-quick}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
fail() { echo "FAIL: $*" >&2; exit 1; }

cd "$(dirname "$0")/.."
go build -o "$WORKDIR/" ./cmd/efmcalc ./cmd/efmgen
cd "$WORKDIR"

case "$MODE" in
quick)
  ./efmgen -layers 6 -width 6 -cross 14 -rev 0.2 -coef 2 -seed 42 > synthetic.txt 2> /dev/null
  NET="-file synthetic.txt"
  PART="-qsub 2"
  ;;
full)
  NET="-model yeast1"
  PART="-partition R89r,R74r"
  ;;
*)
  fail "usage: longrun.sh quick|full"
  ;;
esac

# label, then efmcalc's arguments.
RUNS=(
  "table2/serial-w1|$NET -workers 1"
  "table2/serial-w2|$NET -workers 2"
  "table2/keep-duplicates|$NET -keep-duplicates"
  "table2/nodes-2|$NET -algorithm parallel -workers 1 -tcp -nodes 2"
  "table2/nodes-4|$NET -algorithm parallel -workers 1 -tcp -nodes 4"
  "table2/verify|$NET -workers 2 -verify"
  "table3/nodes-1|$NET -algorithm dnc $PART -nodes 1"
  "table3/nodes-2|$NET -algorithm dnc $PART -nodes 2 -workers 1 -tcp"
  "iva/qsub-1|$NET -algorithm dnc -qsub 1"
  "iva/qsub-3|$NET -algorithm dnc -qsub 3"
)
if [ "$MODE" = quick ]; then
  RUNS+=("table4/budget|$NET -algorithm dnc -max-modes 1000")
else
  # 26000 is just above the 25,309-column peak of class
  # R54r!=0,R90r=0,R60r=0,R36r=0,R32r=0,R29r=0, the one depth-3 class
  # that finishes under a budget this small (25,306 EFMs); every other
  # leaf stays unresolved.
  RUNS+=("table4/budget|-model yeast2 -algorithm dnc -partition R54r,R90r,R60r -max-modes 26000")
  # The paper prints the partition as R89r,R74r (table3/nodes-*); its
  # class counts are those of R36r,R29r here.
  RUNS+=("table3/paper-keepdup|$NET -keep-duplicates -algorithm dnc -partition R36r,R29r")
fi

for run in "${RUNS[@]}"; do
  label="${run%%|*}"
  args="${run#*|}"
  echo "== $label: efmcalc $args" >&2
  start=$(date +%s.%N)
  # shellcheck disable=SC2086 # $args is a word list on purpose
  ./efmcalc $args -json > summary.json
  jq -c --arg name "$label" --arg args "$args" --argjson start "$start" '
    {label: $name, args: ($args | split(" ")), summary: .}
    + if ($args | split(" ") | index("-verify")) then
        (now - $start - .elapsed_seconds) as $v
        | {verify_seconds: $v, verify_seconds_per_mode: ($v / .modes)}
      else {} end' summary.json >> records.jsonl
  jq -r '"   \(.modes) modes, \(.candidate_modes) candidates, \(.elapsed_seconds | floor) s"' summary.json >&2
done
jq -s . records.jsonl > records.json

# Each run's serial reference: the first run of the same network and
# reduction without -algorithm.
SERIAL='def serial($all; $r): [$all[] | select(.summary.network == $r.summary.network
    and .summary.reduction == $r.summary.reduction and (.args | index("-algorithm") | not))][0];
  def alg: (.args | index("-algorithm")) as $i | if $i then .args[$i + 1] else "serial" end;'

bad=$(jq -r "$SERIAL"'
  group_by([.summary.network, .summary.reduction])[]
  | map(select(alg != "dnc"))
  | select((map(.summary | [.modes, .fingerprint, .candidate_modes, .pairs_visited]) | unique | length) > 1)
  | map("\(.label): \(.summary | [.modes, .fingerprint, .candidate_modes, .pairs_visited])") | join("; ")' records.json)
[ -z "$bad" ] || fail "Algorithm 2 differs across node counts: $bad"

bad=$(jq -r "$SERIAL"'. as $all | .[] | select(alg == "dnc") | . as $r
  | ([.summary.subproblems[].efms] | add) as $sum
  | serial($all; $r) as $s
  | select($sum != .summary.modes or (.summary.scheduler.unresolved == 0 and $s != null
      and [$sum, .summary.fingerprint] != [$s.summary.modes, $s.summary.fingerprint]))
  | "\(.label): classes sum to \($sum), modes \(.summary.modes) on \(.summary.fingerprint)"' records.json)
[ -z "$bad" ] || fail "Algorithm 3 classes do not add up to the serial set: $bad"

bad=$(jq -r "$SERIAL"'. as $all | .[] | select(.args | index("-max-modes")) | . as $r
  | serial($all; $r) as $s
  | [.summary.subproblems[] | select(.re_split)] as $split
  | [.summary.subproblems[] | select((.re_split or .unresolved or .skipped) | not)] as $done
  | select(($split | length) == 0 or ($done | length) == 0
      or (.summary.scheduler.unresolved == 0
          and ($s == null or [.summary.modes, .summary.fingerprint] != [$s.summary.modes, $s.summary.fingerprint])))
  | "\(.label): \($split | length) re-split, \($done | length) enumerated, \(.summary.scheduler.unresolved) unresolved, \(.summary.modes) modes"' records.json)
[ -z "$bad" ] || fail "budgeted run: $bad"

if [ "$MODE" = full ]; then
  got=$(jq -c '[.[] | select(.label == "table3/paper-keepdup") | [.summary.subproblems[].efms]]' records.json)
  want='[[274919,599344,207533,433518]]'
  [ "$got" = "$want" ] || fail "Table III on R36r,R29r with duplicates kept: class EFMs $got, want the paper's $want"
fi

cat records.json
