#!/usr/bin/env bash
# Writes one catnap-bench-v1 record per BENCHMARK.json workload to
# results/BENCH_<workload>.json with benchmark/run.sh --record. Each
# record carries its host block: CPU count and model, compiler, build
# type and commit. The workload list and run length are read from
# BENCHMARK.json. Exits 1 unless every run reports "correct": true.
#
#   scripts/bench_records.sh
set -euo pipefail
cd "$(dirname "$0")/.."

spec="$(python3 -c 'import json; b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], *[w["name"] for w in b["workloads"]])')"
read -r seconds workloads <<< "$spec"

mkdir -p results
for w in $workloads; do
    record="results/BENCH_$w.json"
    rm -f "$record" # --record appends
    last="$(benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" \
        --trace 0 --record "$record" | tail -n 1)" || true
    case "$last" in
        '{"correct": true,'*) echo "[bench] wrote $record" ;;
        *) echo "bench_records: $w failed: $last" >&2
           exit 1 ;;
    esac
done
