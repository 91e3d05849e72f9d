#!/bin/sh
# shelleyc --monitor over an on-disk cache: the cold run stores the class's
# compiled table -- the one monitor artifact, a .tbl.shc entry, no DFA
# entry -- and the warm run replays it with the same verdict lines.
#
# Usage: test_monitor_cache.sh <shelleyc> <valve.py> <workdir>
set -eu

SHELLEYC=$1
SPEC=$2
DIR=$3

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

for run in cold warm; do
  printf 'test\nopen\nclose\n' |
    "$SHELLEYC" --monitor Valve --cache "$DIR/cache" --cache-stats "$SPEC" \
      > "$DIR/$run.txt" || fail "the $run run failed"
  # The verdict lines end at the blank line before the statistics block.
  sed -n '/^$/q;p' "$DIR/$run.txt" > "$DIR/$run.verdicts"
done

[ -s "$DIR/cold.verdicts" ] || fail "the cold run printed no verdicts"
cmp -s "$DIR/cold.verdicts" "$DIR/warm.verdicts" ||
  fail "the warm verdict lines differ from the cold ones"
grep -q '^  misses *1$' "$DIR/cold.txt" ||
  fail "the cold run did not miss exactly once"
grep -q '^  stores *1$' "$DIR/cold.txt" ||
  fail "the cold run did not store exactly once"
grep -q '^  hits *1$' "$DIR/warm.txt" || fail "the warm run did not hit"
ls "$DIR/cache"/*.tbl.shc > /dev/null 2>&1 || fail "no .tbl.shc entry"
if ls "$DIR/cache"/*.dfa.shc > /dev/null 2>&1; then
  fail "a .dfa.shc entry was written"
fi

echo "monitor cache OK"
