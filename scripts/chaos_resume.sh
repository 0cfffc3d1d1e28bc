#!/usr/bin/env bash
# Chaos drill for the crash-isolated sweep backend (DESIGN.md §15):
# run the Figure 10 sweep under --isolate, SIGKILL a worker mid-point,
# then SIGKILL the supervisor itself mid-sweep, resume from the journal,
# and require the merged CSV to be bit-for-bit identical to an
# uninterrupted serial in-process run. Then tear the journal's tail and
# require the second resume after it to replay every point, and require
# an in-process --jobs 4 sweep resumed from its own journal to replay
# all 36 points without executing any. Figure 13's two traffic patterns
# must share one sweep: its warm rerun replays all 96 points. A last
# leg checks that permanent failures produce a deterministic quarantine
# report.
#
# Usage: scripts/chaos_resume.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
FIG10="$BUILD/bench/fig10_synthetic_sweep"
FIG13="$BUILD/bench/fig13_ir_policy"
SIM="$BUILD/tools/catnap_sim"
[ -x "$FIG10" ] && [ -x "$FIG13" ] && [ -x "$SIM" ] ||
  { echo "error: build $FIG10, $FIG13 and $SIM first" >&2; exit 2; }

WORK="$(mktemp -d chaos_resume.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
JOURNAL="$WORK/fig10.journal"

journal_bytes() { stat -c %s "$JOURNAL" 2>/dev/null || echo 0; }

echo "== leg 1: uninterrupted serial baseline =="
"$FIG10" --jobs 1 --csv "$WORK/baseline.csv" > /dev/null

echo "== leg 2: isolated sweep, kill a worker, then the supervisor =="
"$FIG10" --isolate --jobs 1 --journal "$JOURNAL" --scratch "$WORK/scratch" \
  --csv "$WORK/interrupted.csv" > /dev/null 2>&1 &
SUP=$!

# Wait for the first journalled point so the resume has work to skip.
for _ in $(seq 1 300); do
  [ "$(journal_bytes)" -gt 0 ] && break
  kill -0 "$SUP" 2>/dev/null || { echo "error: supervisor died early" >&2; exit 1; }
  sleep 0.1
done
[ "$(journal_bytes)" -gt 0 ] || { echo "error: journal never grew" >&2; exit 1; }

# SIGKILL one in-flight worker; the supervisor must retry it invisibly.
for _ in $(seq 1 50); do
  WPID="$(pgrep -f -- '--worker-spec' | head -n 1 || true)"
  if [ -n "$WPID" ]; then
    kill -KILL "$WPID" 2>/dev/null || true
    echo "killed worker pid $WPID"
    break
  fi
  sleep 0.1
done

# Let the sweep make more progress, then SIGKILL the supervisor itself,
# possibly mid-journal-append (the scan tolerates a torn tail).
GROWN=$(( $(journal_bytes) + 1 ))
for _ in $(seq 1 300); do
  [ "$(journal_bytes)" -ge "$GROWN" ] && break
  kill -0 "$SUP" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SUP" 2>/dev/null; then
  kill -KILL "$SUP" 2>/dev/null || true
  echo "killed supervisor pid $SUP with $(journal_bytes) journal bytes"
fi
wait "$SUP" 2>/dev/null || true
[ ! -f "$WORK/interrupted.csv" ] ||
  { echo "error: interrupted run was not actually interrupted" >&2; exit 1; }

echo "== leg 3: resume from the journal =="
"$FIG10" --isolate --jobs 1 --resume --journal "$JOURNAL" \
  --scratch "$WORK/scratch" --csv "$WORK/resumed.csv" \
  > /dev/null 2> "$WORK/resume.stderr"
grep -o '[0-9]* point(s) from journal' "$WORK/resume.stderr" ||
  { echo "error: no isolate status line on resume" >&2; exit 1; }
REPLAYED="$(grep -o '[0-9]* point(s) from journal' "$WORK/resume.stderr" |
            grep -o '^[0-9]*')"
[ "$REPLAYED" -gt 0 ] ||
  { echo "error: resume replayed nothing from the journal" >&2; exit 1; }

cmp "$WORK/baseline.csv" "$WORK/resumed.csv" ||
  { echo "error: resumed CSV differs from uninterrupted baseline" >&2; exit 1; }
echo "resumed CSV is bit-for-bit identical to the serial baseline"

echo "== leg 4: a torn journal tail stays resumable =="
# A supervisor killed mid-append leaves a torn record: the first resume
# re-runs that point, the second must find all 36 intact.
truncate -s -5 "$JOURNAL"
for pass in 1 2; do
  "$FIG10" --isolate --jobs 1 --resume --journal "$JOURNAL" \
    --scratch "$WORK/scratch" --csv "$WORK/torn$pass.csv" \
    > /dev/null 2> "$WORK/torn$pass.stderr"
  grep '^\[isolate\]' "$WORK/torn$pass.stderr"
done
grep -q '\] 0 executed, 36 point(s) from journal' "$WORK/torn2.stderr" ||
  { echo "error: second resume after a torn tail re-ran points" >&2; exit 1; }
cmp "$WORK/baseline.csv" "$WORK/torn2.csv" ||
  { echo "error: CSV after a torn tail differs from the baseline" >&2; exit 1; }
echo "second resume after a torn tail replays every point bit-for-bit"

echo "== leg 5: an in-process journal serves a warm rerun =="
"$FIG10" --jobs 4 --journal "$WORK/local.journal" --csv "$WORK/cold.csv" \
  > /dev/null
"$FIG10" --jobs 4 --journal "$WORK/local.journal" --resume \
  --csv "$WORK/warm.csv" > /dev/null 2> "$WORK/warm.stderr"
grep '^\[local\]' "$WORK/warm.stderr"
grep -qF '[local] 0 executed, 36 point(s) from journal' "$WORK/warm.stderr" ||
  { echo "error: warm rerun executed points" >&2; exit 1; }
cmp "$WORK/baseline.csv" "$WORK/cold.csv" &&
  cmp "$WORK/baseline.csv" "$WORK/warm.csv" ||
  { echo "error: journalled fig10 CSV differs from the baseline" >&2; exit 1; }
echo "warm rerun replays all 36 points bit-for-bit, executing none"

echo "== leg 6: one journal serves every pattern of a figure =="
# Figure 13 sweeps two traffic patterns; both must run as one sweep, so
# the cold run journals all 96 points and the warm rerun replays them.
"$FIG13" --jobs 4 --journal "$WORK/fig13.journal" > "$WORK/fig13_cold.out" \
  2> "$WORK/fig13_cold.stderr"
"$FIG13" --jobs 4 --journal "$WORK/fig13.journal" --resume \
  > "$WORK/fig13_warm.out" 2> "$WORK/fig13_warm.stderr"
grep '^\[local\]' "$WORK/fig13_warm.stderr"
grep -qxF '[local] 0 executed, 96 point(s) from journal, 0 quarantined' \
  "$WORK/fig13_warm.stderr" ||
  { echo "error: fig13 warm rerun executed points" >&2; exit 1; }
cmp "$WORK/fig13_cold.out" "$WORK/fig13_warm.out" ||
  { echo "error: fig13 warm rerun stdout differs from the cold run" >&2; exit 1; }
echo "fig13 warm rerun replays all 96 points, executing none"

echo "== leg 7: quarantine report is deterministic =="
QARGS=(--subnets 2 --gating catnap --loads 0.05,0.10 --warmup 200
       --measure 600 --isolate --worker /bin/false
       --scratch "$WORK/qscratch" --point-retries 1)
set +e
"$SIM" "${QARGS[@]}" > /dev/null 2> "$WORK/q1.stderr"; RC1=$?
"$SIM" "${QARGS[@]}" > /dev/null 2> "$WORK/q2.stderr"; RC2=$?
set -e
[ "$RC1" -eq 4 ] && [ "$RC2" -eq 4 ] ||
  { echo "error: expected exit 4 (quarantine), got $RC1/$RC2" >&2; exit 1; }
cmp "$WORK/q1.stderr" "$WORK/q2.stderr" ||
  { echo "error: quarantine summary is not deterministic" >&2; exit 1; }
echo "quarantine exits 4 with an identical summary across runs"

echo "chaos_resume: all legs passed"
