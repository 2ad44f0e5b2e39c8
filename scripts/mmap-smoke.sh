#!/bin/sh
# End-to-end zero-copy serving smoke: pack a v2 snapshot, boot seaserve on
# it with the default -mmap serving path, verify /graphs reports the dataset
# as mapped, exercise /search and /admin/mutate against the mapped base,
# SIGTERM-drain, then boot a 4×-larger snapshot and verify the mapped boot
# wall-time stays scale-independent (the heap path grows linearly with the
# file; the mapped open touches only header + dictionary). Last, repack the
# legacy compressed fixture and verify the result serves mapped.
#
# Expects: $SMOKE_DIR containing datagen/seacli/seaserve binaries.
# Port: $SMOKE_PORT (default 8973).
set -eu

DIR=${SMOKE_DIR:?set SMOKE_DIR to the directory with datagen/seacli/seaserve}
PORT=${SMOKE_PORT:-8973}
BASE="http://127.0.0.1:$PORT"

wait_up() {
  for _ in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "mmap-smoke: server did not come up" >&2
  return 1
}

# to_ms converts seaserve's rounded boot duration ("0s", "12ms", "1.002s")
# to integer milliseconds.
to_ms() {
  case "$1" in
    *ms) printf '%s\n' "$1" | sed 's/ms$//' | awk '{printf "%d\n", $1}' ;;
    *s)  printf '%s\n' "$1" | sed 's/s$//'  | awk '{printf "%d\n", $1 * 1000}' ;;
    *)   echo 0 ;;
  esac
}

# boot starts seaserve on snapshot $1 logging to $2 and waits for /healthz.
# The server is left running with its PID in $PID.
boot() {
  "$DIR/seaserve" -snapshot "$1" -name fb -addr "127.0.0.1:$PORT" >"$2" 2>&1 &
  PID=$!
  wait_up
  # Guard against a stale server answering wait_up while ours died on bind.
  kill -0 "$PID" 2>/dev/null || {
    echo "mmap-smoke: seaserve exited during boot:" >&2
    cat "$2" >&2
    exit 1
  }
}

# boot_ms extracts the "mounted in <dur>" boot time from log $1, in ms.
boot_ms() {
  to_ms "$(sed -n 's/.* mounted in \([^ ]*\) .*/\1/p' "$1")"
}

"$DIR/datagen" -dataset facebook -scale 0.5 -out "$DIR/small.txt"
"$DIR/datagen" -dataset facebook -scale 2.0 -out "$DIR/big.txt"
"$DIR/seacli" pack -load "$DIR/small.txt" -out "$DIR/small.snap"
"$DIR/seacli" pack -load "$DIR/big.txt" -out "$DIR/big.snap"

# --- Small snapshot: the full serving surface over a mapped base. ---
boot "$DIR/small.snap" "$DIR/small.log"
trap 'kill $PID 2>/dev/null || true' EXIT
SMALL_MS=$(boot_ms "$DIR/small.log")

grep -q 'mapped, ' "$DIR/small.log" || {
  echo "mmap-smoke: boot log does not report a mapped dataset" >&2
  cat "$DIR/small.log" >&2
  exit 1
}
curl -sf "$BASE/graphs" | grep -q '"mapped":true' || {
  echo "mmap-smoke: /graphs does not report mapped:true" >&2
  exit 1
}
curl -sf -X POST "$BASE/search" -d '{"q":0,"method":"structural","k":2}' >/dev/null

# Mutate over the read-only mapped base: deltas build a heap overlay, the
# mapped pages are never written.
X=$(curl -sf "$BASE/healthz" | grep -o '"nodes":[0-9]*' | grep -o '[0-9]*')
curl -sf -X POST "$BASE/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_node\",\"text\":[\"smoke\"]},{\"op\":\"add_edge\",\"u\":$X,\"v\":0},{\"op\":\"add_edge\",\"u\":$X,\"v\":1}]}" \
  | grep -q '"version":1'
curl -sf -X POST "$BASE/search" -d "{\"q\":$X,\"method\":\"structural\",\"k\":1}" \
  | grep -q "\"query\":$X"

# Graceful drain: SIGTERM must exit 0 (Catalog.Close unmaps retired mappings).
kill -TERM $PID
wait $PID || { echo "mmap-smoke: seaserve exited non-zero on SIGTERM" >&2; exit 1; }
trap - EXIT

# --- Big snapshot (4× the edges): mapped boot must not scale with it. ---
boot "$DIR/big.snap" "$DIR/big.log"
trap 'kill $PID 2>/dev/null || true' EXIT
BIG_MS=$(boot_ms "$DIR/big.log")
curl -sf -X POST "$BASE/search" -d '{"q":0,"method":"structural","k":2}' >/dev/null
kill -TERM $PID
wait $PID || true
trap - EXIT

# Scale-independence, with a noise floor: a 4× file may not cost more than
# 2× the small boot plus 100ms of scheduling slack.
LIMIT=$((SMALL_MS * 2 + 100))
if [ "$BIG_MS" -gt "$LIMIT" ]; then
  echo "mmap-smoke: mapped boot grew with graph size: ${SMALL_MS}ms -> ${BIG_MS}ms (limit ${LIMIT}ms)" >&2
  exit 1
fi

# --- Legacy compressed file: repacking it yields a mapped-serving snapshot. ---
LEGACY="$(dirname "$0")/../internal/store/testdata/v2c-figure1.snap"
"$DIR/seacli" pack -load "$LEGACY" -out "$DIR/repacked.snap"
boot "$DIR/repacked.snap" "$DIR/repacked.log"
trap 'kill $PID 2>/dev/null || true' EXIT
curl -sf "$BASE/graphs" | grep -q '"mapped":true' || {
  echo "mmap-smoke: repacked legacy snapshot does not serve mapped" >&2
  exit 1
}
curl -sf -X POST "$BASE/search" -d '{"q":0,"method":"structural","k":2}' | grep -q '"query":0' || {
  echo "mmap-smoke: /search on the repacked legacy snapshot failed" >&2
  exit 1
}
kill -TERM $PID
wait $PID || true
trap - EXIT
echo "mmap-smoke OK (boot ${SMALL_MS}ms small, ${BIG_MS}ms at 4x; legacy repack mapped)"
