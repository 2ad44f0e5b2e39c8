#!/bin/sh
# End-to-end fault-tolerance smoke: boot a journaled primary, two followers,
# and a searouter whose read path has deterministic fault injection armed
# (~20% of upstream read attempts die at the transport). Drive the router with
# seaload while killing -9 the primary mid-run, and assert reads keep
# flowing within an error budget: the router's retries and circuit breakers
# must route around both the injected faults and the dead member. Then boot
# an overloaded node (-max-inflight 1 with an injected slow search holding
# the slot) and assert it sheds with 429 + Retry-After, and finish by
# re-querying through the router twice to check answers stayed consistent
# after the chaos.
#
# Expects: $SMOKE_DIR containing datagen/seacli/seaserve/searouter/seaload
# binaries plus fb.snap (packed snapshot). Base port: $SMOKE_PORT (default
# 8985); uses SMOKE_PORT..SMOKE_PORT+4.
set -eu

DIR=${SMOKE_DIR:?set SMOKE_DIR to the directory with binaries and fb.snap}
P=${SMOKE_PORT:-8985}
F1=$((P + 1))
F2=$((P + 2))
RP=$((P + 3))
OV=$((P + 4))
PRIMARY="http://127.0.0.1:$P"
FOLLOWER1="http://127.0.0.1:$F1"
FOLLOWER2="http://127.0.0.1:$F2"
ROUTER="http://127.0.0.1:$RP"
OVERLOAD="http://127.0.0.1:$OV"

wait_up() {
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "chaos-smoke: $1 did not come up" >&2
  return 1
}

PRIM_PID='' FOL1_PID='' FOL2_PID='' ROUTER_PID='' OVER_PID=''
cleanup() {
  for pid in $PRIM_PID $FOL1_PID $FOL2_PID $ROUTER_PID $OVER_PID; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

# The primary's own fault sites are armed: the first replication bootstrap
# stream severs mid-body (the follower must retry and recover), and the
# second journal append's fsync dies (the dataset must fail closed for
# writes until compaction heals it).
"$DIR/seaserve" -snapshot "$DIR/fb.snap" -journal "$DIR/fb.journal" \
  -name fb -addr "127.0.0.1:$P" \
  -faults 'replicate.stream=count:1,partial,err:reset;journal.fsync=after:1,count:1,err:eio' \
  -faults-seed 5 &
PRIM_PID=$!
wait_up "$PRIMARY"

"$DIR/seaserve" -follow "$PRIMARY" -replica-dir "$DIR/f1" \
  -poll-every 200ms -addr "127.0.0.1:$F1" >"$DIR/f1.log" 2>&1 &
FOL1_PID=$!
"$DIR/seaserve" -follow "$PRIMARY" -replica-dir "$DIR/f2" \
  -poll-every 200ms -addr "127.0.0.1:$F2" >"$DIR/f2.log" 2>&1 &
FOL2_PID=$!
wait_up "$FOLLOWER1"
wait_up "$FOLLOWER2"
# Both followers are up, so the severed first bootstrap stream (count:1 on
# the primary) was survived by a retry — prove it actually fired.
grep -h 'bootstrap from .* failed' "$DIR/f1.log" "$DIR/f2.log" >/dev/null || {
  echo "chaos-smoke: severed bootstrap stream never fired or was not logged" >&2
  exit 1
}
echo "chaos-smoke: a follower retried through the severed bootstrap stream"

# The router's own read client has fault injection armed: each upstream
# read attempt has a 20% chance of dying with a connection reset, so every
# successful client response under load proves the retry path works.
"$DIR/searouter" -addr "127.0.0.1:$RP" \
  -members "$PRIMARY,$FOLLOWER1,$FOLLOWER2" -rf 3 \
  -probe-every 300ms -fail-after 3 -shard-timeout 5s \
  -retries 2 -retry-base 20ms -breaker-threshold 5 -breaker-cooldown 2s \
  -faults 'router.shard=prob:0.2,err:reset' -faults-seed 7 &
ROUTER_PID=$!
wait_up "$ROUTER"

# Seed one write so the followers have a journal to tail and are provably
# in sync before the chaos starts.
X=$(curl -sf "$PRIMARY/healthz" | grep -o '"nodes":[0-9]*' | grep -o '[0-9]*')
curl -sf -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_node\",\"text\":[\"chaos\"]},{\"op\":\"add_edge\",\"u\":$X,\"v\":0}]}" \
  >"$DIR/mutate.json"
grep -q '"version":1' "$DIR/mutate.json"
for f in "$FOLLOWER1" "$FOLLOWER2"; do
  ok=0
  for _ in $(seq 1 50); do
    if curl -sf "$f/healthz" | grep -q '"version":1'; then ok=1; break; fi
    sleep 0.2
  done
  [ "$ok" = 1 ] || { echo "chaos-smoke: follower $f never caught up" >&2; exit 1; }
done

# The armed fsync fault fires on this write: it must fail, quarantine the
# journal (broken in /admin/replication), keep serving reads, and heal by
# compaction — the PR 5 durability invariant under an injected fault.
code=$(curl -s -o "$DIR/fsync-fault.json" -w '%{http_code}' -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_edge\",\"u\":$X,\"v\":2}]}")
[ "$code" -ge 500 ] || {
  echo "chaos-smoke: fsync-faulted mutate answered $code, want 5xx" >&2
  cat "$DIR/fsync-fault.json" >&2
  exit 1
}
curl -sf "$PRIMARY/admin/replication" | grep -q 'durability hole' || {
  echo "chaos-smoke: broken journal not surfaced in /admin/replication" >&2
  exit 1
}
curl -sf "$PRIMARY/search?graph=fb&q=0&k=2" >/dev/null || {
  echo "chaos-smoke: reads stopped on the quarantined dataset" >&2
  exit 1
}
curl -sf -X POST "$PRIMARY/admin/compact" -d '{"graph":"fb"}' >/dev/null
curl -sf -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_edge\",\"u\":$X,\"v\":3}]}" \
  >"$DIR/healed-mutate.json"
grep -q '"version":' "$DIR/healed-mutate.json" || {
  echo "chaos-smoke: mutate after compaction failed" >&2
  cat "$DIR/healed-mutate.json" >&2
  exit 1
}
echo "chaos-smoke: injected fsync fault failed closed and compaction healed it"

# Compaction fenced the followers' cursors (410 → re-bootstrap): wait for
# both replication cursors to converge on the primary's version, with no
# lingering sync error, before the load starts.
RPV=$(curl -sf "$PRIMARY/admin/replication" | grep -o '"version":[0-9]*' | head -1 | grep -o '[0-9]*')
for f in "$FOLLOWER1" "$FOLLOWER2"; do
  ok=0
  for _ in $(seq 1 100); do
    rep=$(curl -sf "$f/admin/replication" || true)
    if echo "$rep" | grep -q "\"version\":$RPV" &&
      ! echo "$rep" | grep -q '"last_error"'; then ok=1; break; fi
    sleep 0.2
  done
  [ "$ok" = 1 ] || { echo "chaos-smoke: follower $f never re-synced after compaction" >&2; exit 1; }
done

# Chaos window: read-heavy load through the faulted router, with the
# primary hard-killed partway through. The error budget tolerates the
# failover blip; anything above it means retries are not healing reads.
"$DIR/seaload" -url "$ROUTER" -graph fb -scenario read-heavy \
  -qps 120 -duration 8s -warmup 1s -timeout 5s -max-error-rate 0.10 \
  >"$DIR/seaload.out" 2>&1 &
LOAD_PID=$!
sleep 3
kill -9 "$PRIM_PID"
PRIM_PID=''
if ! wait "$LOAD_PID"; then
  echo "chaos-smoke: seaload exceeded the chaos error budget" >&2
  cat "$DIR/seaload.out" >&2
  exit 1
fi
cat "$DIR/seaload.out"
grep -q 'within -max-error-rate' "$DIR/seaload.out"

# The injected faults must actually have exercised the retry path.
retries=$(curl -sf "$ROUTER/metrics" | grep '^searouter_read_retries_total' | awk '{print $2}')
[ "${retries:-0}" -ge 1 ] || {
  echo "chaos-smoke: no read retries recorded under 20% injected faults" >&2
  exit 1
}
echo "chaos-smoke: $retries read retries healed injected faults"
curl -sf "$ROUTER/metrics" | grep -q '^searouter_breaker_state{' || {
  echo "chaos-smoke: /metrics missing breaker state gauges" >&2
  exit 1
}

# The dead primary must have been replaced: the router reports healthy
# under a promoted follower, and writes land again.
promoted=''
for _ in $(seq 1 100); do
  health=$(curl -s "$ROUTER/healthz" || true)
  if echo "$health" | grep -q '"status":"ok"' &&
    ! echo "$health" | grep -q "\"primary\":\"$PRIMARY\""; then
    promoted=$(echo "$health" | grep -o '"primary":"[^"]*"' | head -1 | cut -d'"' -f4)
    break
  fi
  sleep 0.2
done
[ -n "$promoted" ] || { echo "chaos-smoke: no follower was promoted" >&2; exit 1; }
echo "chaos-smoke: promoted $promoted"
curl -sf -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_edge\",\"u\":$X,\"v\":1}]}" \
  >"$DIR/failover-mutate.json" || {
  echo "chaos-smoke: write after failover failed" >&2
  exit 1
}
grep -q '"version":[0-9]' "$DIR/failover-mutate.json" || {
  echo "chaos-smoke: post-failover write carries no version" >&2
  cat "$DIR/failover-mutate.json" >&2
  exit 1
}

# Overload control: a node bounded to one in-flight computation, with an
# injected 2s delay holding that slot, must shed the second concurrent
# query fast with 429 + Retry-After instead of queueing it.
"$DIR/seaserve" -snapshot "$DIR/fb.snap" -name fb -addr "127.0.0.1:$OV" \
  -max-inflight 1 -faults 'engine.search=delay:2s,count:1' -faults-seed 3 &
OVER_PID=$!
wait_up "$OVERLOAD"
curl -sf "$OVERLOAD/search?graph=fb&q=1&k=2" >/dev/null &
HOLDER_PID=$!
sleep 0.5
code=$(curl -s -o "$DIR/shed.json" -D "$DIR/shed.hdr" -w '%{http_code}' \
  "$OVERLOAD/search?graph=fb&q=2&k=2")
[ "$code" = 429 ] || {
  echo "chaos-smoke: overloaded node answered $code, want 429" >&2
  cat "$DIR/shed.json" >&2
  exit 1
}
grep -qi '^retry-after:' "$DIR/shed.hdr" || {
  echo "chaos-smoke: shed response carries no Retry-After" >&2
  cat "$DIR/shed.hdr" >&2
  exit 1
}
wait "$HOLDER_PID" || { echo "chaos-smoke: the slow holder query failed" >&2; exit 1; }
echo "chaos-smoke: overloaded node shed with 429 + Retry-After"

# Post-chaos consistency: the same query through the router twice must
# return the same community and delta (metrics timings differ by nature).
extract() {
  grep -o '"community":\[[^]]*\]' "$1" || true
  grep -o '"delta":[0-9.e+-]*' "$1" || true
  grep -o '"size":[0-9]*' "$1" || true
}
curl -sf "$ROUTER/search?graph=fb&q=0&k=2" >"$DIR/post1.json"
curl -sf "$ROUTER/search?graph=fb&q=0&k=2" >"$DIR/post2.json"
extract "$DIR/post1.json" >"$DIR/post1.fields"
extract "$DIR/post2.json" >"$DIR/post2.fields"
[ -s "$DIR/post1.fields" ] || {
  echo "chaos-smoke: post-chaos /search returned no community fields" >&2
  cat "$DIR/post1.json" >&2
  exit 1
}
cmp -s "$DIR/post1.fields" "$DIR/post2.fields" || {
  echo "chaos-smoke: post-chaos answers diverged" >&2
  diff "$DIR/post1.fields" "$DIR/post2.fields" >&2 || true
  exit 1
}

echo "chaos-smoke OK"
