#!/usr/bin/env bash
# Records a capture for perfbench/compare: runs every workload on a
# range of seeds, round-robin across workloads so a drift in host speed
# spreads over all of them, and appends one JSON line per run to OUT.
# Run from the repository root:
#
#   bash perfbench/capture.sh OUT.ndjson [FIRST_SEED] [SEEDS] [TRACE] [WORKLOAD...]
#
# Defaults: seeds 1..10, --trace 0, every workload, and the run length
# from BENCHMARK.json.
set -euo pipefail

out=${1:?usage: capture.sh OUT.ndjson [FIRST_SEED] [SEEDS] [TRACE] [WORKLOAD...]}
first=${2:-1}
count=${3:-10}
trace=${4:-0}
shift $(($# < 4 ? $# : 4))

cd "$(dirname "$0")/.."
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	read -r -a workloads <<<"$(bash perfbench/run.sh --list)"
fi

for ((seed = first; seed < first + count; seed++)); do
	for w in "${workloads[@]}"; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
			--trace "$trace" --capture "$out" | tail -n 1
	done
done
