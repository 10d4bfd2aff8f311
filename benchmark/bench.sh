#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark package from source,
# offline, in release mode, then run one workload.
#
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# The program runs from the repository root, reads BENCHMARK.json there and
# writes only under benchmark/out/ (and the cargo target directory).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Cargo's own output goes to stderr; the program's last stdout line is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mc-benchmark" "$@"
