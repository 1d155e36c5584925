#!/usr/bin/env bash
# The line count ROADMAP.md and every simplicity PR report: non-blank,
# non-comment lines of tracked non-test Go outside bench/. Counts the
# working tree's copy of the files git tracks, so run `git add -A`
# first when files were added or deleted.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z '*.go' ':!*_test.go' ':!bench' |
  xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$'
