#!/usr/bin/env bash
# Smoke of the programs no test or other script runs: the four examples,
# netinfo, and efmgen piped into efmcalc. Each must build, exit 0 and
# print the line that says it did its job. Exits non-zero on the first
# failed assertion.
set -euo pipefail

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect NAME PATTERN: the named program's output must have a line
# matching the extended regex.
expect() {
  grep -Eq "$2" "$WORKDIR/$1.out" || { cat "$WORKDIR/$1.out" >&2; fail "$1 printed no line matching '$2'"; }
}

cd "$(dirname "$0")/.."

echo "== build"
for prog in examples/quickstart examples/partition examples/knockout examples/yeastscan \
  cmd/netinfo cmd/efmgen cmd/efmcalc; do
  go build -o "$WORKDIR/$(basename "$prog")" "./$prog"
done

echo "== examples"
for ex in quickstart partition knockout yeastscan; do
  "$WORKDIR/$ex" > "$WORKDIR/$ex.out" 2>&1 || { cat "$WORKDIR/$ex.out" >&2; fail "examples/$ex exited non-zero"; }
done
expect quickstart '^all modes verified'
expect partition '^verified: classes are pairwise disjoint'
expect knockout 'ESSENTIAL for ethanol'
expect yeastscan '^stopped after [0-9]+ of [0-9]+ iterations'

echo "== netinfo -model yeast1"
"$WORKDIR/netinfo" -model yeast1 > "$WORKDIR/netinfo.out"
expect netinfo '62x78 -> 40x64'

echo "== efmgen | efmcalc"
"$WORKDIR/efmgen" -layers 3 -width 3 2>/dev/null | "$WORKDIR/efmcalc" -file /dev/stdin > "$WORKDIR/efmcalc.out"
expect efmcalc '^elementary flux modes: [1-9][0-9]*$'

echo "PASS: examples smoke"
