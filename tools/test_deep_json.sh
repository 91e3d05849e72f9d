#!/bin/sh
# Process-level regression for one hostile JSON line: 200 000 nested '['.
# shelleyd must answer it with a structured {"ok":false} error, over stdio
# and over --socket, and keep answering; shelley-monitor must count it as
# one malformed line and still check the next one.  Neither process may
# exit on a signal.
#
# Usage: test_deep_json.sh <shelleyd> <shelley-monitor> <valve.py> <workdir>
set -eu

SHELLEYD=$1
MONITOR=$2
VALVE=$3
DIR=$4

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

deep_line() {
  head -c 200000 /dev/zero | tr '\000' '['
  echo
}

# Requires a normal exit: a process killed by a signal reports 128 + N.
expect_exit() {
  [ "$2" -eq "$3" ] || fail "$1 exited with status $2, expected $3"
}

{ deep_line; echo '{"cmd":"version"}'; } > "$DIR/requests.txt"

# Each reply line names the request it answers: line 1 the deep line,
# line 2 the version request after it.
check_replies() {
  sed -n 1p "$2" | grep -q '"ok":false' ||
    fail "$1: no structured error for the deep line"
  sed -n 1p "$2" | grep -q 'recursion limit' ||
    fail "$1: the error does not name the nesting bound"
  sed -n 2p "$2" | grep -q 'shelley-mp/' ||
    fail "$1: the request after the deep line got no reply"
}

# -- stdio daemon ------------------------------------------------------------
status=0
"$SHELLEYD" < "$DIR/requests.txt" > "$DIR/stdio.txt" || status=$?
expect_exit "shelleyd (stdio)" "$status" 0
check_replies "shelleyd (stdio)" "$DIR/stdio.txt"

# -- socket server -----------------------------------------------------------
SOCK=$DIR/shelleyd.sock
"$SHELLEYD" --socket "$SOCK" 2> "$DIR/server_stderr.txt" &
SERVER_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    fail "server socket never appeared"
  fi
  sleep 0.1
done
status=0
"$SHELLEYD" --connect "$SOCK" < "$DIR/requests.txt" > "$DIR/socket.txt" ||
  status=$?
if [ "$status" -ne 0 ]; then
  kill "$SERVER_PID" 2>/dev/null || true
  fail "shelleyd --connect exited with status $status"
fi
check_replies "shelleyd --socket" "$DIR/socket.txt"
# The server still serves a fresh client, then stops cleanly.
printf '{"cmd":"shutdown","scope":"server"}\n' |
  "$SHELLEYD" --connect "$SOCK" > "$DIR/shutdown.txt"
status=0
wait "$SERVER_PID" || status=$?
expect_exit "shelleyd --socket" "$status" 0
grep -q '"ok":true' "$DIR/shutdown.txt" ||
  fail "shelleyd --socket: no reply to the shutdown after the deep line"

# -- shelley-monitor ---------------------------------------------------------
{
  echo '{"device":"a","op":"test"}'
  deep_line
  echo '{"device":"a","op":"open"}'
} > "$DIR/events.ndjson"
status=0
"$MONITOR" --class Valve --events "$DIR/events.ndjson" "$VALVE" \
  > "$DIR/monitor.txt" 2>&1 || status=$?
expect_exit "shelley-monitor" "$status" 0
grep -q 'events 2, ok 2, violations 0, malformed 1' "$DIR/monitor.txt" ||
  fail "shelley-monitor: the deep line is not one malformed line"

echo "deep JSON OK: shelleyd stdio, shelleyd --socket, shelley-monitor"
