#!/usr/bin/env bash
# Builds the simulator benchmark from source (a full compile on the first
# run, a no-op after) and runs it. Every argument goes to catnap_bench:
#
#   benchmark/run.sh --workload lowload_catnap --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh --self-test
#
# The build lives in .bench_build/ at the repository root. Build output
# goes to stderr, so the last line of stdout is always the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2

# Commit of the measured code, when the checkout is a git work tree; the
# search stops at the root so an enclosing repository is never read.
CATNAP_BENCH_GIT_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
    git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export CATNAP_BENCH_GIT_REV

exec "$build/catnap_bench" "$@"
