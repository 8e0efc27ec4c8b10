#!/usr/bin/env bash
# Re-records results/bench_baseline.json, the committed reference the CI
# bench-regression job compares against. Run this (and commit the result)
# after an intentional performance change; the gate fails any later run
# whose throughput drops more than 25% below these numbers. (The
# decode_lanes shape gate of `perf_suite --check` compares ratios within one
# run and reads nothing from this file; its numbers are recorded here for
# the record only.)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p infuserki-bench --bin perf_suite
./target/release/perf_suite --write results/bench_baseline.json
