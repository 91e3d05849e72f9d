#!/bin/sh
# Process-level regression for one over-long request line on the socket
# transport.  A 1 MiB line sent to `shelleyd --socket --max-input-bytes
# 65536` must get one structured {"ok":false} error naming the bound -- the
# reader drops the line instead of buffering it -- and the request after it
# must still be answered.  The server must then stop cleanly (exit 0, never
# a signal).
#
# Usage: test_long_line.sh <shelleyd> <workdir>
set -eu

SHELLEYD=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# One 1 MiB line with no newline of its own, then the newline, then a
# version request.
{
  head -c 1048576 /dev/zero | tr '\000' 'a'
  echo
  echo '{"cmd":"version"}'
} > "$DIR/requests.txt"

SOCK=$DIR/shelleyd.sock
"$SHELLEYD" --socket "$SOCK" --max-input-bytes 65536 \
  2> "$DIR/server_stderr.txt" &
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
"$SHELLEYD" --connect "$SOCK" < "$DIR/requests.txt" > "$DIR/replies.txt" ||
  status=$?
if [ "$status" -ne 0 ]; then
  kill "$SERVER_PID" 2>/dev/null || true
  fail "shelleyd --connect exited with status $status"
fi
if ! sed -n 1p "$DIR/replies.txt" | grep -q '"ok":false' ||
   ! sed -n 1p "$DIR/replies.txt" | grep -q '65536'; then
  kill "$SERVER_PID" 2>/dev/null || true
  fail "no structured error naming the bound for the long line"
fi
if ! sed -n 2p "$DIR/replies.txt" | grep -q 'shelley-mp/'; then
  kill "$SERVER_PID" 2>/dev/null || true
  fail "the request after the long line got no reply"
fi
[ "$(wc -l < "$DIR/replies.txt")" -eq 2 ] || {
  kill "$SERVER_PID" 2>/dev/null || true
  fail "expected exactly two replies"
}

printf '{"cmd":"shutdown","scope":"server"}\n' |
  "$SHELLEYD" --connect "$SOCK" > "$DIR/shutdown.txt"
status=0
wait "$SERVER_PID" || status=$?
[ "$status" -eq 0 ] || fail "shelleyd --socket exited with status $status"
grep -q '"ok":true' "$DIR/shutdown.txt" ||
  fail "no reply to the shutdown after the long line"

echo "long line OK: shelleyd --socket"
