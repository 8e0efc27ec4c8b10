#!/usr/bin/env bash
# A/A check: the acceptance procedure, run on one commit. For each of SETS
# sets (default 2) it runs every workload once per seed (default seeds
# 1..10; the last set uses held-out seeds 12..21) and then reports, per
# workload and end-to-end metric, the spread of each set (interquartile
# distance over the median) against the metric's bound, and how far the
# later sets' medians are from the first's. Exits non-zero on any
# disagreement. Result lines are kept in benchmark/out/aa_set<k>.txt and the
# report in benchmark/out/aa_report.json.
#
#   benchmark/aa.sh [SETS] [RUNS_PER_WORKLOAD]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
sets="${1:-2}"
runs="${2:-10}"
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
mkdir -p benchmark/out
files=()
for set in $(seq 1 "$sets"); do
  file="benchmark/out/aa_set${set}.txt"
  : > "$file"
  files+=("$file")
  first=1
  if [ "$set" -eq "$sets" ] && [ "$sets" -gt 1 ]; then first=12; fi
  for workload in gen_decode mcq_templates fleet_open_mixed kg_update_watch; do
    for seed in $(seq "$first" $((first + runs - 1))); do
      echo "aa: set $set, $workload, seed $seed" >&2
      line="$(benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
      echo "$workload $line" >> "$file"
    done
  done
done
exec "${CARGO_TARGET_DIR:-target}/release/harness" spread "${files[@]}"
