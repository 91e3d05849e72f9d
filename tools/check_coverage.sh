#!/usr/bin/env sh
# Coverage gate for the incremental-verification subsystem.
#
#   check_coverage.sh <coverage_build_dir> <source_dir>
#
# Runs the test binaries that exercise the cache/hash stack inside a build
# configured with -DSHELLEY_COVERAGE=ON (the "coverage" preset), then asks
# gcov for the line coverage of each gated source file and fails if any of
# them is below the floor.  Only gcov is required -- it ships with gcc -- so
# the gate runs anywhere the toolchain does (lcov/llvm-cov optional
# elsewhere).
#
# Wired as the ctest entry `coverage_cache_hash` (label: coverage), so
#   cmake --preset coverage && cmake --build --preset coverage
#   ctest --preset coverage
# is the whole CI recipe.
set -eu

BUILD_DIR=${1:?usage: check_coverage.sh <coverage_build_dir> <source_dir>}
SOURCE_DIR=${2:?usage: check_coverage.sh <coverage_build_dir> <source_dir>}
# gcov runs from a scratch dir, so both roots must be absolute.
BUILD_DIR=$(CDPATH= cd -- "$BUILD_DIR" && pwd)
SOURCE_DIR=$(CDPATH= cd -- "$SOURCE_DIR" && pwd)
FLOOR=90

# The suites that define the subsystem's coverage. Re-running them resets
# nothing (gcda accumulates), which is fine: more coverage never fails.
for test_bin in support_hash_test core_cache_test \
    core_cache_differential_test; do
  if [ ! -x "$BUILD_DIR/tests/$test_bin" ]; then
    echo "check_coverage: missing $BUILD_DIR/tests/$test_bin" >&2
    echo "check_coverage: build the 'coverage' preset first" >&2
    exit 2
  fi
  "$BUILD_DIR/tests/$test_bin" >/dev/null
done

# file -> its .gcda inside the object dir (CMake names it <src>.cpp.gcda,
# so gcov must be pointed at the counter file itself, not at the source).
check_file() {
  rel_source=$1
  object_dir=$2
  gcda_file="$BUILD_DIR/$object_dir/$(basename "$rel_source").gcda"
  if [ ! -f "$gcda_file" ]; then
    echo "check_coverage: no $gcda_file (not a coverage build?)" >&2
    exit 2
  fi
  # gcov prints, per file: "File '...'" then "Lines executed:NN.NN% of M".
  percent=$(cd "$WORK_DIR" && gcov -n "$gcda_file" 2>/dev/null |
    awk -v want="$rel_source" '
      /^File / { hit = index($0, want) > 0 }
      hit && /^Lines executed:/ {
        split($0, parts, ":"); split(parts[2], value, "%");
        print value[1]; exit
      }')
  if [ -z "$percent" ]; then
    echo "check_coverage: gcov reported nothing for $rel_source" >&2
    exit 2
  fi
  echo "coverage $rel_source: ${percent}% (floor ${FLOOR}%)"
  if ! awk -v p="$percent" -v f="$FLOOR" 'BEGIN { exit !(p >= f) }'; then
    echo "check_coverage: $rel_source below the ${FLOOR}% floor" >&2
    FAILED=1
  fi
}

WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT
FAILED=0

check_file src/support/hash.cpp src/support/CMakeFiles/shelley_support.dir
check_file src/shelley/cache.cpp src/shelley/CMakeFiles/shelley_core.dir
check_file src/shelley/fingerprint.cpp src/shelley/CMakeFiles/shelley_core.dir

if [ "$FAILED" -ne 0 ]; then
  echo "check_coverage: FAILED" >&2
  exit 1
fi
echo "check_coverage: OK"
