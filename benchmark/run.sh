#!/usr/bin/env bash
# The benchmark's one command. Builds the product's `serve` and `kg_ingest`
# binaries and the harness (release, offline), then runs the harness from
# the repository root:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 1] [--no-check]
#       all four workloads as a table (with --trace 1: plus the traced pass,
#       the per-layer probes and one Chrome trace per workload)
#
# Everything it writes goes under benchmark/out/ and the cargo target
# directory ($CARGO_TARGET_DIR if set, else target/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One absolute target directory for both builds, whatever the caller's
# CARGO_TARGET_DIR was relative to.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr; stdout carries results only.
cargo build --release --offline -p infuserki-router --bin serve -p infuserki-ingest --bin kg_ingest >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/harness" "$@"
