#!/usr/bin/env bash
# Quick end-to-end check of the benchmark: the self-test, then every
# workload untraced and traced with its measurement window cut to 5% and
# the fewest repeats. Fails if any run reports "correct": false.
# About 30 s on a 4-CPU host once built.
#
#   benchmark/smoke.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

"$here/run.sh" --self-test >/dev/null

for workload in lowload_catnap highload_4nt cmp_medium_light fig10_sweep; do
    for trace in 0 1; do
        last="$("$here/run.sh" --workload "$workload" --seed 1 --seconds 0 \
            --scale 0.05 --trace "$trace" | tail -n 1)"
        case "$last" in
            '{"correct": true,'*) echo "ok  $workload --trace $trace" ;;
            *) echo "smoke: $workload --trace $trace failed: $last" >&2
               exit 1 ;;
        esac
    done
done
echo "smoke: ok"
