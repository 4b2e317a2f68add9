#!/usr/bin/env bash
# Calibrates the end-to-end regression bounds on one commit: runs seeds 1-5
# and 6-10 of every workload, then lets compare.py derive each metric's bound
# from the spread it saw and write it into BENCHMARK.json.
#
#   benchmark/calibrate.sh BIN [--write]
#
# BIN is a ritas_bench built with
#   cmake -S benchmark -B build-bench && cmake --build build-bench
# Without --write the bounds are only printed. OUT sets the result directory
# (default bench-calibration).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 BIN [--write]" >&2
  exit 2
fi
bin=$1
shift
here=$(cd "$(dirname "$0")" && pwd)
manifest="$here/../BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")
workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$manifest")
out=${OUT:-bench-calibration}
mkdir -p "$out"

for seed in $(seq 1 10); do
  for w in $workloads; do
    log="$out/run_${w}_${seed}.log"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" > "$log" 2>&1 || true
    tail -n 1 "$log" > "$out/run_${w}_${seed}.json"
    echo "seed $seed $w: $(tail -n 1 "$log")"
  done
done
python3 "$here/compare.py" calibrate "$out" --manifest "$manifest" "$@"
