#!/bin/sh
# Process-level bound on the daemon's monitor command with an inline
# "ndjson" blob: the blob is checked as a view of the parsed request, never
# copied, so one 41 MiB request line carrying 32 MiB of NDJSON must leave a
# stdio shelleyd's peak resident set (VmHWM in /proc/PID/status) under
# 148 MiB: about 137 MiB when the blob is checked in place, about 158 MiB
# when it was copied once more after parsing.  The daemon must then stop
# cleanly (exit 0, never a signal).
#
# Usage: test_monitor_blob.sh <shelleyd> <valve.py> <workdir>
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

# 1082401 events of 31 bytes: 32 MiB of NDJSON, 40 bytes per event once
# escaped into the request's JSON string.
BOUND_KB=151552
EVENTS=1082401
REQUESTS=$DIR/requests.txt
{
  printf '{"cmd":"load","files":["%s"]}\n' "$SPEC"
  printf '{"cmd":"monitor","class":"Valve","ndjson":"'
  yes '{\"device\":\"valve\",\"op\":\"test\"}\n' | head -n "$EVENTS" |
    tr -d '\n'
  printf '"}\n'
} > "$REQUESTS"

# The daemon reads a FIFO whose write end this script holds open, so the
# process is still alive when its peak is read.
FIFO=$DIR/in.fifo
mkfifo "$FIFO"
"$SHELLEYD" --max-input-bytes 67108864 < "$FIFO" > "$DIR/replies.txt" \
  2> "$DIR/stderr.txt" &
PID=$!
exec 3> "$FIFO"
cat "$REQUESTS" >&3
rm -f "$REQUESTS"

stop() {
  exec 3>&-
  kill "$PID" 2>/dev/null || true
  fail "$@"
}
tries=0
while [ "$(wc -l < "$DIR/replies.txt")" -lt 2 ]; do
  tries=$((tries + 1))
  [ "$tries" -le 600 ] || stop "no reply to the monitor request"
  sleep 0.1
done
REPLY=$(sed -n 2p "$DIR/replies.txt" | cut -c1-200)
echo "$REPLY" | grep -q '"ok":true' || stop "the monitor request failed: $REPLY"
sed -n 2p "$DIR/replies.txt" | grep -q "\"events\":$EVENTS," ||
  stop "the monitor request did not check all $EVENTS events"
HWM_KB=$(awk '/^VmHWM:/ {print $2}' "/proc/$PID/status")

printf '{"cmd":"shutdown"}\n' >&3
exec 3>&-
status=0
wait "$PID" || status=$?
[ "$status" -eq 0 ] || fail "shelleyd exited with status $status"

[ "$HWM_KB" -lt "$BOUND_KB" ] ||
  fail "peak RSS ${HWM_KB} kB for a 32 MiB NDJSON blob (bound ${BOUND_KB} kB)"
echo "monitor blob OK: peak RSS ${HWM_KB} kB for a 32 MiB NDJSON blob"
