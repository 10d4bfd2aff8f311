#!/usr/bin/env bash
# Run the six workloads, one process each, untraced and traced.
#
#   benchmark/run.sh [seed]
#
# Prints a table of every metric (name, value, unit, quartiles, samples) and
# writes benchmark/out/latest.json: one record per run, each with its host
# stamp. Exits non-zero if any read failed, a declared metric is missing,
# or an argument is not understood. MC_BENCH_OUT names the combined file
# (repeat.sh uses it to keep several sets apart).
set -euo pipefail
if [ "$#" -gt 1 ] || { [ "$#" -eq 1 ] && ! [[ "$1" =~ ^[0-9]+$ ]]; }; then
    echo "usage: benchmark/run.sh [seed]" >&2
    exit 2
fi
seed="${1:-1}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="build_otf query_sparse_short stream_dense_file query_sharded4 serve_loopback serve_reload"
combined="${MC_BENCH_OUT:-benchmark/out/latest.json}"
status=0
records=()
for workload in $workloads; do
    for trace in 0 1; do
        # The result line is for the driver; the table above it is for people.
        if ! bash benchmark/bench.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | sed '$d'; then
            echo "run.sh: $workload (trace $trace) failed" >&2
            status=1
        fi
        records+=("benchmark/out/$workload.trace$trace.json")
        echo
    done
done
{
    echo '{"records": ['
    first=1
    for record in "${records[@]}"; do
        [ "$first" -eq 1 ] || echo ','
        first=0
        cat "$record"
    done
    echo ']}'
} > "$combined"
echo "wrote $combined"
exit "$status"
