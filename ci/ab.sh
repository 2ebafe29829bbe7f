#!/usr/bin/env bash
# Side-by-side A/B of the benchmark's end-to-end metrics: this checkout
# against a parent revision, on one workload or on all of them.
#
#   ci/ab.sh PARENT_REV WORKLOAD|all [PAIRS [SEED]]
#
# Builds the parent's `benchmark` from `git archive PARENT_REV` under
# target/ab/<commit>/, with a target directory of its own, and this
# checkout's in benchmark/target. Both builds must print the same `pass`
# digest at SEED (default 42) on every workload compared, or the script
# stops before any pair runs: two builds that simulate different things
# cannot be compared on cost. It then runs PAIRS pairs (default 10) of
# `benchmark --workload WORKLOAD --seed SEED --seconds 10 --trace 0`,
# both builds started together with `taskset`, one per vCPU; which build
# starts first, and on which CPU, alternates from pair to pair. `all`
# takes every workload BENCHMARK.json lists, in turn (about PAIRS × 20 s
# each). A claim measured at one seed can be re-checked at another. For
# each workload and each end-to-end metric in BENCHMARK.json it prints
# one row: the parent's median [q1, q3], the change's median, the change
# in percent and how many pairs the change won. Each run's output is
# kept under target/ab/<commit>/runs/WORKLOAD-SEED/. Needs two vCPUs,
# git, python3 and taskset; nothing else should load the machine while
# it runs.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 4 ] || ! [[ ${3:-10} =~ ^[0-9]+$ ]] || [ "${3:-10}" -lt 2 ] ||
  ! [[ ${4:-42} =~ ^[0-9]+$ ]]; then
  echo "usage: ci/ab.sh PARENT_REV WORKLOAD|all [PAIRS >= 2 [SEED]]" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
if [ "$2" = all ]; then
  mapfile -t workloads < <(python3 -c 'import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]), sep="\n")' \
    "$root/BENCHMARK.json")
else
  workloads=("$2")
fi
pairs=${3:-10}
seed=${4:-42}
read -r -a cpus <<< "$(python3 -c 'import os; print(*sorted(os.sched_getaffinity(0))[:2])')"
if [ "${#cpus[@]}" -lt 2 ]; then
  echo "error: side-by-side runs need two vCPUs" >&2
  exit 1
fi

dir=$root/target/ab/$rev
if [ ! -f "$dir/src/benchmark/Cargo.toml" ]; then
  rm -rf "$dir/src"
  mkdir -p "$dir/src"
  git -C "$root" archive "$rev" | tar -x -C "$dir/src"
fi
CARGO_TARGET_DIR=$dir/target cargo build --release --quiet \
  --manifest-path "$dir/src/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$root/benchmark/target cargo build --release --quiet \
  --manifest-path "$root/benchmark/Cargo.toml"
parent=$dir/target/release/benchmark
change=$root/benchmark/target/release/benchmark

digest() { "$1" pass --workload "$2" --seed "$seed" | sed -n 's/^digest //p'; }
for workload in "${workloads[@]}"; do
  want=$(digest "$parent" "$workload")
  got=$(digest "$change" "$workload")
  if [ "$want" != "$got" ]; then
    echo "error: $workload pass digest $got, parent $want at seed $seed: the builds simulate different things" >&2
    exit 1
  fi
  echo "$workload: both builds print pass digest $got at seed $seed"
done

for workload in "${workloads[@]}"; do
  out=$dir/runs/$workload-$seed
  rm -rf "$out"
  mkdir -p "$out"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for k in 0 1; do
      side=${order[$k]}
      taskset -c "${cpus[$k]}" "${!side}" --workload "$workload" --seed "$seed" --seconds 10 \
        --trace 0 > "$out/$i-$side.txt" &
      pids[k]=$!
    done
    status=0
    wait "${pids[0]}" || status=$?
    wait "${pids[1]}" || status=$?
    if [ "$status" -ne 0 ]; then
      echo "error: a run of pair $i failed; its output is in $out" >&2
      exit 1
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$dir/runs" "$pairs" "$seed" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec, runs, pairs, seed, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:]

def values(workload, side, name):
    # The last line of a run is its JSON summary.
    out = f"{runs}/{workload}-{seed}"
    lines = [open(f"{out}/{i}-{side}.txt").read().splitlines()[-1] for i in range(pairs)]
    return [json.loads(r)["metrics"][name]["value"] for r in lines]

print(f"seed {seed}, {pairs} side-by-side pairs per workload")
print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<30} {'change':>10} {'delta':>9}  won")
for workload in workloads:
    for m in json.load(open(spec))["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p, c = values(workload, "parent", name), values(workload, "change", name)
        q1, _, q3 = statistics.quantiles(p, n=4)
        pm, cm = statistics.median(p), statistics.median(c)
        won = sum(b < a if lower else b > a for a, b in zip(p, c))
        span = f"{pm:.4g} [{q1:.4g}, {q3:.4g}]"
        delta = f"{100 * (cm - pm) / pm:+.1f} %"
        print(f"{workload:<14} {name:<14} {span:<30} {cm:>10.4g} {delta:>9}  {won}/{pairs}")
EOF
