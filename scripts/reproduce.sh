#!/usr/bin/env bash
# Reproduce every experiment: build, run the test suite, regenerate
# every table/figure/ablation/extension into results/, then write the
# simulator's performance records (scripts/bench_records.sh).
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

cmake -B build -S .
cmake --build build -j "$(nproc)"

mkdir -p results
ctest --test-dir build --output-on-failure -j"$(nproc)" 2>&1 |
  tee results/test_output.txt

{
  total_start=$(date +%s)
  # One harness per bench/ source; a stale binary or a CMake directory
  # in build/bench/ is never run.
  for src in bench/*.cc; do
    b="build/bench/$(basename "$src" .cc)"
    echo "== $b =="
    start=$(date +%s%N)
    "$b" --jobs "$JOBS"
    end=$(date +%s%N)
    echo "[time] $(basename "$b"): $(((end - start) / 1000000)) ms"
    if [ "$(basename "$b")" = "fig10_synthetic_sweep" ]; then
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
    fi
    echo
  done
  total_end=$(date +%s)
  echo "[time] total bench wall-clock: $((total_end - total_start)) s" \
       "(--jobs $JOBS)"
} 2>&1 | tee results/bench_output.txt

scripts/bench_records.sh

echo "Done. See results/test_output.txt, results/bench_output.txt and" \
     "results/BENCH_*.json."
