#!/usr/bin/env bash
# Runs N pairs of two ritas_bench binaries on every workload and compares
# them with compare.py.
#
#   benchmark/run_pairs.sh PARENT_BIN CHANGE_BIN N
#
# Build each binary from its commit with
#   cmake -S benchmark -B build-bench && cmake --build build-bench
# Pair i runs both sides with seed 100+i, so the pairs use seeds other than
# those calibration uses; odd pairs run the parent first, even pairs the
# change. OUT sets the result directory (default bench-pairs).
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN N" >&2
  exit 2
fi
parent=$1
change=$2
n=$3
here=$(cd "$(dirname "$0")" && pwd)
manifest="$here/../BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$manifest")
out=${OUT:-bench-pairs}
mkdir -p "$out"

for i in $(seq 1 "$n"); do
  seed=$((100 + i))
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for w in $workloads; do
    for side in $order; do
      bin=$parent
      [[ $side == change ]] && bin=$change
      log="$out/${side}_${w}_${seed}.log"
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" > "$log" 2>&1 || true
      tail -n 1 "$log" > "$out/${side}_${w}_${seed}.json"
      echo "pair $i $w $side: $(tail -n 1 "$log")"
    done
  done
done
python3 "$here/compare.py" pairs "$out" --manifest "$manifest"
