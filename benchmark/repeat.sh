#!/usr/bin/env bash
# A/A check: run the full set n times (default 2) on the same code and seed
# and compare every end-to-end metric of each consecutive pair of sets
# against its bound from BENCHMARK.json. Prints the table; exits non-zero if
# any metric of any workload differs by more than its bound in the direction
# that counts as worse. Later PRs use it to see the noise of this host.
#
#   benchmark/repeat.sh [n]
set -euo pipefail
if [ "$#" -gt 1 ] || { [ "$#" -eq 1 ] && ! [[ "$1" =~ ^[0-9]+$ && "$1" -ge 2 ]]; }; then
    echo "usage: benchmark/repeat.sh [n >= 2]" >&2
    exit 2
fi
sets="${1:-2}"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
for i in $(seq 1 "$sets"); do
    MC_BENCH_OUT="benchmark/out/set-$i.json" bash benchmark/run.sh 1 > "benchmark/out/set-$i.log" \
        || { echo "repeat.sh: set $i failed, see benchmark/out/set-$i.log" >&2; status=1; }
done
python3 - "$sets" <<'PY' || status=1
import json, sys
sets = int(sys.argv[1])
declared = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
def load(i):
    out = {}
    for record in json.load(open(f"benchmark/out/set-{i}.json"))["records"]:
        if not record["traced"]:
            out[record["workload"]] = {m["name"]: m["value"] for m in record["metrics"]}
    return out
print(f"{'workload':<20} {'metric':<22} {'pair':<6} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
outside = 0
previous = load(1)
for i in range(2, sets + 1):
    current = load(i)
    for workload, metrics in previous.items():
        for name, first in metrics.items():
            second = current[workload][name]
            sign = 1 if declared[name]["better"] == "lower" else -1
            worse = sign * (second - first) / first
            # Either order of the pair is an equally good "parent".
            worse = max(worse, sign * (first - second) / second)
            bound = declared[name]["bound"]
            flag = "  OUTSIDE" if worse > bound else ""
            outside += worse > bound
            print(f"{workload:<20} {name:<22} {i-1}-{i:<4} {first:>14.6g} {second:>14.6g} {worse:>9.4f} {bound:>6.2f}{flag}")
    previous = current
print(f"{outside} metric(s) outside their bound")
sys.exit(1 if outside else 0)
PY
exit "$status"
