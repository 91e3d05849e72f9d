#!/bin/sh
# Process-level bound on the daemon's monitor command with "file": the
# events file is read in 1 MiB chunks, never held whole, so checking a
# 64 MiB NDJSON file must leave the server's peak resident set (VmHWM in
# /proc/PID/status) well under the file's size.  The server must then
# stop cleanly (exit 0, never a signal).
#
# Usage: test_monitor_file.sh <shelleyd> <valve.py> <workdir>
set -eu

SHELLEYD=$1
SPEC=$2
DIR=$3

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

FILE_KB=65536
EVENTS=$DIR/events.ndjson
yes '{"device":"valve","op":"test"}' | head -c $((FILE_KB * 1024)) \
  > "$EVENTS"

SOCK=$DIR/shelleyd.sock
"$SHELLEYD" --socket "$SOCK" 2> "$DIR/server_stderr.txt" &
SERVER_PID=$!
stop() {
  kill "$SERVER_PID" 2>/dev/null || true
  rm -f "$EVENTS"
  fail "$@"
}
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || stop "server socket never appeared"
  sleep 0.1
done

printf '{"cmd":"load","files":["%s"]}\n{"cmd":"monitor","class":"Valve","file":"%s"}\n' \
  "$SPEC" "$EVENTS" |
  "$SHELLEYD" --connect "$SOCK" > "$DIR/replies.txt" ||
  stop "shelleyd --connect failed"
sed -n 2p "$DIR/replies.txt" | grep -q '"ok":true' ||
  stop "the monitor request failed: $(sed -n 2p "$DIR/replies.txt")"
sed -n 2p "$DIR/replies.txt" | grep -q '"events":[1-9]' ||
  stop "the monitor request checked no events"
HWM_KB=$(awk '/^VmHWM:/ {print $2}' "/proc/$SERVER_PID/status")
rm -f "$EVENTS"

printf '{"cmd":"shutdown","scope":"server"}\n' |
  "$SHELLEYD" --connect "$SOCK" > "$DIR/shutdown.txt"
status=0
wait "$SERVER_PID" || status=$?
[ "$status" -eq 0 ] || fail "shelleyd --socket exited with status $status"

[ "$HWM_KB" -lt $((FILE_KB / 2)) ] ||
  fail "peak RSS ${HWM_KB} kB for a ${FILE_KB} kB events file"
echo "monitor file OK: peak RSS ${HWM_KB} kB for a ${FILE_KB} kB events file"
