#!/usr/bin/env bash
# Determinism check: runs one invocation of a release binary four
# times, each in its own directory, and byte-diffs stdout and every file
# the run wrote against the first run.
#
#   ci/determinism.sh NAME BIN [ARGS...]
#
# The runs are NAME-a (as given), NAME-b (again), NAME-jobs (`--jobs 4`
# appended; the last flag wins) and NAME-nomemo (MORPHEUS_DESER_MEMO=0,
# the replay memo off). BIN names a binary in $BIN_DIR (default
# target/release). Checks that read a run's output read NAME-a.
set -euo pipefail
name=$1
bin=$(cd "${BIN_DIR:-target/release}" && pwd)/$2
shift 2
leg() {
  local dir=$name-$1
  shift
  rm -rf "$dir"
  mkdir "$dir"
  (cd "$dir" && "$@" > stdout.txt)
}
leg a "$bin" "$@"
leg b "$bin" "$@"
leg jobs "$bin" "$@" --jobs 4
leg nomemo env MORPHEUS_DESER_MEMO=0 "$bin" "$@"
for run in b jobs nomemo; do
  diff "$name-a/stdout.txt" "$name-$run/stdout.txt"
  diff -rq "$name-a" "$name-$run"
done
echo "ok: $name is byte-identical across a rerun, --jobs 4 and memo-off"
