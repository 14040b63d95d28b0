#!/usr/bin/env bash
# Builds bench_e2e once, then runs every workload twice over, 10 seeds per
# set, and checks each workload x end-to-end metric against its bound in
# BENCHMARK.json. Exits non-zero on any FAIL. Takes about 40 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml
exec "${CARGO_TARGET_DIR:-bench_e2e/target}/release/bench_e2e" --check-repeat "$@"
