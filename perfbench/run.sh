#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout (first run only;
# later runs are an up-to-date check) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload NAME --repeat K [--seed N --seconds S]
#
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "perfbench: no shelley sources under $root/src" >&2
  exit 2
fi

build="$root/.bench_build/perfbench"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" --target shelley_perfbench -j "$jobs"
} 1>&2

if [[ -d "$root/.git" ]]; then
  PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
else
  PERFBENCH_COMMIT=unknown
fi
export PERFBENCH_COMMIT
exec "$build/shelley_perfbench" "$@"
