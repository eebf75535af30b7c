#!/usr/bin/env bash
# Drives a fresh `lamps serve` daemon with lamps_loadgen, then drains it.
#
#   scripts/serve_load.sh <lamps> <lamps_loadgen> [serve flags] -- [loadgen flags]
#
# Starts `<lamps> serve --port 0 [serve flags]` under a --max-runtime-s
# guard, so a daemon this script leaves behind still drains itself.  Reads
# the port from the daemon's "listening on 127.0.0.1:P" line, runs
# `<lamps_loadgen> --port P [loadgen flags]`, sends SIGTERM, waits for the
# drain and prints the daemon's stdout (its last line is the exit summary).
# Exits 0 only when loadgen exits 0 and the daemon, still running when
# SIGTERM arrives, drains and exits 0.
if [ $# -lt 3 ]; then
  echo "usage: $0 <lamps> <lamps_loadgen> [serve flags] -- [loadgen flags]" >&2
  exit 2
fi
lamps=$1
loadgen=$2
shift 2
serve_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  serve_args+=("$1")
  shift
done
if [ $# -eq 0 ]; then
  echo "$0: no -- between the serve and the loadgen flags" >&2
  exit 2
fi
shift

log=$(mktemp)
pid=
trap '[ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null; rm -f "$log"' EXIT

"$lamps" serve --port 0 --max-runtime-s 300 "${serve_args[@]}" > "$log" &
pid=$!
port=
for _ in $(seq 300); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
  if [ -n "$port" ] || ! kill -0 "$pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "$0: lamps serve reported no port" >&2
  cat "$log"
  exit 1
fi

"$loadgen" --port "$port" "$@"
loadgen_rc=$?

# The daemon must still be up: one that is already gone has not shown that
# a SIGTERM drain works.
alive=1
kill -TERM "$pid" 2>/dev/null || alive=0
wait "$pid"
serve_rc=$?
pid=
cat "$log"

if [ "$loadgen_rc" -ne 0 ]; then
  echo "$0: lamps_loadgen exited $loadgen_rc" >&2
  exit "$loadgen_rc"
fi
if [ "$alive" -eq 0 ]; then
  echo "$0: lamps serve was gone before SIGTERM (exit $serve_rc)" >&2
  exit 1
fi
if [ "$serve_rc" -ne 0 ]; then
  echo "$0: lamps serve exited $serve_rc after SIGTERM" >&2
  exit "$serve_rc"
fi
