#!/usr/bin/env bash
# Checks that this checkout simulates exactly what BASE_REV simulates:
# runs every BENCHMARK.json workload at seeds 1 and 2 (untraced, a
# quarter of the measurement windows) in both trees and compares their
# sim_digests. BASE_REV is checked out with `git worktree` under
# .bench_build/ and removed afterwards; benchmark/run.sh builds each tree.
# Prints each pair of digests and exits 1 on any difference or failed
# run, 2 on a usage error.
#
#   scripts/digest_identity.sh BASE_REV
#
# A change that means to alter the model fails this check by design.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/digest_identity.sh BASE_REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
head="$(pwd)"
rev="$(git rev-parse --verify --quiet "$1^{commit}")" || {
    echo "digest_identity: '$1' names no commit" >&2
    exit 2
}

base="$head/.bench_build/digest-base"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
mkdir -p "$head/.bench_build"
git worktree add --detach "$base" "$rev" >&2
trap 'git worktree remove --force "$base" 2>/dev/null || true' EXIT

workloads="$(python3 -c 'import json
print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')"

# Prints the sim_digest of one run of TREE's benchmark, or "failed".
digest() {
    local out
    out="$("$1/benchmark/run.sh" --workload "$2" --seed "$3" --seconds 0 \
        --scale 0.25 --trace 0 2>/dev/null)" || { echo failed; return; }
    grep -o '"sim_digest": "[^"]*"' <<< "$out" | cut -d'"' -f4 ||
        echo failed
}

status=0
for w in $workloads; do
    for seed in 1 2; do
        a="$(digest "$base" "$w" "$seed")"
        b="$(digest "$head" "$w" "$seed")"
        verdict=same
        if [ "$a" = failed ] || [ "$a" != "$b" ]; then
            verdict=DIFFERENT
            status=1
        fi
        printf '%-18s seed %s  base %s  head %s  %s\n' \
            "$w" "$seed" "$a" "$b" "$verdict"
    done
done
if [ "$status" -ne 0 ]; then
    echo "digest_identity: outputs differ from $rev" >&2
fi
exit "$status"
