#!/bin/sh
# End-to-end group-commit smoke: boot seaserve on a journaled snapshot plus
# a follower replicating from it, fire a 32-writer mutation burst at
# /admin/mutate, and verify the staged write path end to end:
#
#   - every acknowledged mutation is journaled (no writer lost, none shed),
#   - the burst coalesced: the graph version (= flushes = engine
#     generations) is well below the acknowledged-mutation count, and the
#     journal holds exactly one batch record per flush,
#   - responses carry the batch observability fields (batch_size, flush_ns),
#   - the follower converges to the primary's version and answers a search
#     byte-identically,
#   - a SIGTERM drain (exit 0 required) followed by a reboot replays the
#     batch records to the same version and the same search answer.
#
# Expects: $SMOKE_DIR containing datagen/seacli/seaserve binaries plus
# fb.snap (packed snapshot). Ports: $SMOKE_PORT (default 8977) for the
# primary, $SMOKE_FOLLOWER_PORT (default 8978) for the follower.
set -eu

DIR=${SMOKE_DIR:?set SMOKE_DIR to the directory with binaries and fb.snap}
PORT=${SMOKE_PORT:-8977}
FPORT=${SMOKE_FOLLOWER_PORT:-8978}
BASE="http://127.0.0.1:$PORT"
FBASE="http://127.0.0.1:$FPORT"
WRITERS=32
ROUNDS=4

wait_up() {
  for _ in $(seq 1 50); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "write-smoke: server at $1 did not come up" >&2
  return 1
}

# -compact-every 0: the one-record-per-flush check below reads the journal,
# which a background compaction would fold away mid-burst (the burst can
# take more flushes than the default threshold).
"$DIR/seaserve" -snapshot "$DIR/fb.snap" -journal "$DIR/fb.journal" \
  -name fb -addr "127.0.0.1:$PORT" -compact-every 0 &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT
wait_up "$BASE"

"$DIR/seaserve" -follow "$BASE" -replica-dir "$DIR/follower" \
  -poll-every 100ms -addr "127.0.0.1:$FPORT" &
FPID=$!
trap 'kill $PID $FPID 2>/dev/null || true' EXIT
wait_up "$FBASE"

# 32 concurrent writers, 4 single-delta mutations each. Unique text tags so
# no set_attr is a no-op. curl -sf fails the writer on any non-2xx (a shed
# would 429), and the FAIL marker surfaces it after the wait.
rm -f "$DIR"/mutate-*.json
WPIDS=""
for w in $(seq 1 $WRITERS); do
  (
    for i in $(seq 1 $ROUNDS); do
      curl -sf -X POST "$BASE/admin/mutate" \
        -d "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"set_attr\",\"u\":$((w - 1)),\"text\":[\"smoke\",\"w$w-$i\"]}]}" \
        >>"$DIR/mutate-$w.json" || echo FAIL >>"$DIR/mutate-$w.json"
      echo >>"$DIR/mutate-$w.json"
    done
  ) &
  WPIDS="$WPIDS $!"
done
wait $WPIDS

if grep -q FAIL "$DIR"/mutate-*.json; then
  echo "write-smoke: a writer got a non-2xx response" >&2
  exit 1
fi
WANT=$((WRITERS * ROUNDS))
ACKED=$(cat "$DIR"/mutate-*.json | grep -c '"journaled":[0-9]')
[ "$ACKED" = "$WANT" ] || {
  echo "write-smoke: $ACKED/$WANT mutations acknowledged as journaled" >&2
  exit 1
}
# Batch observability must surface on the mutation responses.
grep -q '"batch_size":' "$DIR"/mutate-1.json
grep -q '"flush_ns":' "$DIR"/mutate-1.json

# Coalescing: the version counts flushes, so it must sit strictly below the
# acknowledged-mutation count; and the journal holds exactly one batch
# record (journal_batches) per flush, with the sequence number to match.
VERSION=$(curl -sf "$BASE/healthz" | grep -o '"version":[0-9]*' | head -1 | grep -o '[0-9]*$')
BATCHES=$(curl -sf "$BASE/graphs" | grep -o '"journal_batches":[0-9]*' | head -1 | grep -o '[0-9]*$')
SEQ=$(curl -sf "$BASE/graphs" | grep -o '"journal_seq":[0-9]*' | head -1 | grep -o '[0-9]*$')
[ "$VERSION" -ge 1 ] || { echo "write-smoke: no flush happened" >&2; exit 1; }
[ "$VERSION" -lt "$WANT" ] || {
  echo "write-smoke: version $VERSION >= $WANT acked mutations — no coalescing" >&2
  exit 1
}
[ "$BATCHES" = "$VERSION" ] || {
  echo "write-smoke: $BATCHES journal batch records for $VERSION flushes, want one per flush" >&2
  exit 1
}
[ "$SEQ" = "$VERSION" ] || {
  echo "write-smoke: journal_seq $SEQ != version $VERSION" >&2
  exit 1
}
# The commit histograms must pass through /metrics.
curl -sf "$BASE/metrics" | grep -q '^sea_commit_batch_size_count{graph="fb"}'
echo "write-smoke: $ACKED mutations in $VERSION flushes"

# Follower convergence: same version, then a byte-identical search answer
# (modulo the per-request timing fields).
Q='{"q":0,"method":"structural","k":3}'
for _ in $(seq 1 100); do
  FVERSION=$(curl -sf "$FBASE/healthz" | grep -o '"version":[0-9]*' | head -1 | grep -o '[0-9]*$') || FVERSION=0
  [ "$FVERSION" = "$VERSION" ] && break
  sleep 0.2
done
[ "$FVERSION" = "$VERSION" ] || {
  echo "write-smoke: follower stuck at version $FVERSION, primary at $VERSION" >&2
  exit 1
}
strip() { sed 's/"metrics":{[^}]*}//' "$1"; }
curl -sf -X POST "$BASE/search" -d "$Q" >"$DIR/primary.json"
curl -sf -X POST "$FBASE/search" -d "$Q" >"$DIR/follower.json"
if [ "$(strip "$DIR/primary.json")" != "$(strip "$DIR/follower.json")" ]; then
  echo "write-smoke: follower answer diverged from primary" >&2
  diff "$DIR/primary.json" "$DIR/follower.json" >&2 || true
  exit 1
fi

# Drain and reboot the primary: replaying the batch records must restore
# the exact version and the exact answer.
kill $FPID 2>/dev/null || true
kill -TERM $PID
wait $PID || { echo "write-smoke: seaserve exited non-zero on SIGTERM" >&2; exit 1; }
trap - EXIT

"$DIR/seaserve" -snapshot "$DIR/fb.snap" -journal "$DIR/fb.journal" \
  -name fb -addr "127.0.0.1:$PORT" &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT
wait_up "$BASE"
RVERSION=$(curl -sf "$BASE/healthz" | grep -o '"version":[0-9]*' | head -1 | grep -o '[0-9]*$')
[ "$RVERSION" = "$VERSION" ] || {
  echo "write-smoke: replay restored version $RVERSION, want $VERSION" >&2
  exit 1
}
curl -sf -X POST "$BASE/search" -d "$Q" >"$DIR/reboot.json"
kill -TERM $PID
wait $PID || true
trap - EXIT
if [ "$(strip "$DIR/primary.json")" != "$(strip "$DIR/reboot.json")" ]; then
  echo "write-smoke: post-replay answer diverged" >&2
  diff "$DIR/primary.json" "$DIR/reboot.json" >&2 || true
  exit 1
fi
echo "write-smoke OK"
