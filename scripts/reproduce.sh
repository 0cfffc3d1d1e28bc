#!/usr/bin/env bash
# Reproduce every experiment: build, run the test suite, then regenerate
# every table/figure/ablation/extension into results/.
#
# Usage: scripts/reproduce.sh [--jobs N]
#   --jobs N   worker threads per bench harness (default: all cores).
#              Results are bit-identical for every value (DESIGN.md §12);
#              --jobs only changes wall-clock time.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      JOBS="$2"
      shift 2
      ;;
    *)
      echo "usage: $0 [--jobs N]" >&2
      exit 2
      ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

mkdir -p results
ctest --test-dir build --output-on-failure -j"$(nproc)" 2>&1 |
  tee results/test_output.txt

{
  total_start=$(date +%s)
  for b in build/bench/*; do
    [ -x "$b" ] || continue
    echo "== $b =="
    start=$(date +%s%N)
    case "$(basename "$b")" in
      micro_simulator)
        # Google-benchmark harness: times single runs; no --jobs.
        "$b"
        ;;
      *)
        "$b" --jobs "$JOBS"
        ;;
    esac
    end=$(date +%s%N)
    echo "[time] $(basename "$b"): $(((end - start) / 1000000)) ms"
    if [ "$(basename "$b")" = "fig10_synthetic_sweep" ]; then
      # Throughput record for the Figure 10 sweep. The constants mirror
      # the harness: 4 configs x 9 loads (fig10_synthetic_sweep.cc) at
      # the shared phase lengths of bench_util.h sweep_params(); the
      # variable-length drain phase is excluded from the cycle count.
      ms=$(((end - start) / 1000000))
      points=36
      warmup=1500
      measure=5000
      sim_cycles=$((points * (warmup + measure)))
      cps=0
      [ "$ms" -gt 0 ] && cps=$((sim_cycles * 1000 / ms))
      warm_frac=$(awk -v w="$warmup" -v m="$measure" \
                  'BEGIN { printf "%.4f", w / (w + m) }')
      # Warm-journal leg (DESIGN.md §15): the same sweep with a
      # --journal, cold (every point executed and stored) then warm
      # (--resume: every point replayed, none executed). Both CSVs must
      # be bit-identical to the serial in-process run.
      JWORK="$(mktemp -d journal_repro.XXXXXX)"
      "$b" --jobs 1 --csv "$JWORK/serial.csv" > /dev/null
      s0=$(date +%s%N)
      "$b" --jobs "$JOBS" --journal "$JWORK/fig10.journal" \
        --csv "$JWORK/cold.csv" > /dev/null
      s1=$(date +%s%N)
      "$b" --jobs "$JOBS" --journal "$JWORK/fig10.journal" --resume \
        --csv "$JWORK/warm.csv" > /dev/null
      s2=$(date +%s%N)
      cmp "$JWORK/serial.csv" "$JWORK/cold.csv" &&
        cmp "$JWORK/serial.csv" "$JWORK/warm.csv" || {
        echo "ERROR: journalled fig10 CSV differs from the in-process run" >&2
        exit 1
      }
      rm -rf "$JWORK"
      echo "[journal] cold $(((s1 - s0) / 1000000)) ms," \
           "warm $(((s2 - s1) / 1000000)) ms (CSVs bit-identical)"
      printf '{\n  "bench": "fig10_synthetic_sweep",\n  "jobs": %s,\n  "points": %s,\n  "warmup_cycles_per_point": %s,\n  "measure_cycles_per_point": %s,\n  "warmup_fraction_of_point": %s,\n  "simulated_cycles_excl_drain": %s,\n  "wall_clock_ms": %s,\n  "cycles_per_sec": %s\n}\n' \
        "$JOBS" "$points" "$warmup" "$measure" "$warm_frac" \
        "$sim_cycles" "$ms" "$cps" \
        > results/BENCH_fig10.json || {
        echo "ERROR: failed to write results/BENCH_fig10.json" >&2
        exit 1
      }
      # A truncated or empty record is as bad as a missing one: the
      # checked-in copy is diffed in review, so fail loudly here
      # rather than committing garbage downstream.
      [ -s results/BENCH_fig10.json ] &&
        grep -q '"cycles_per_sec"' results/BENCH_fig10.json || {
        echo "ERROR: results/BENCH_fig10.json is empty or truncated" >&2
        exit 1
      }
      echo "[json] wrote results/BENCH_fig10.json"
    fi
    echo
  done
  total_end=$(date +%s)
  echo "[time] total bench wall-clock: $((total_end - total_start)) s" \
       "(--jobs $JOBS)"
} 2>&1 | tee results/bench_output.txt

echo "Done. See results/test_output.txt and results/bench_output.txt."
