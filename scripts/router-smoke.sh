#!/bin/sh
# End-to-end distributed-serving smoke: boot a journaled primary, two
# followers replicating from it, and a searouter fronting all three. Mutate
# through the router (write forwarding), wait for the followers to catch up,
# check /search reads spread over all three members, send a /batch and a
# /compare, each answered whole by one member, then
# kill -9 the primary and verify the router promotes a follower and keeps
# serving both reads and writes.
#
# Expects: $SMOKE_DIR containing datagen/seacli/seaserve/searouter binaries
# plus fb.snap (packed snapshot). Base port: $SMOKE_PORT (default 8975);
# uses SMOKE_PORT..SMOKE_PORT+3.
set -eu

DIR=${SMOKE_DIR:?set SMOKE_DIR to the directory with binaries and fb.snap}
P=${SMOKE_PORT:-8975}
F1=$((P + 1))
F2=$((P + 2))
RP=$((P + 3))
PRIMARY="http://127.0.0.1:$P"
FOLLOWER1="http://127.0.0.1:$F1"
FOLLOWER2="http://127.0.0.1:$F2"
ROUTER="http://127.0.0.1:$RP"

wait_up() {
  for _ in $(seq 1 100); do
    curl -sf "$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "router-smoke: $1 did not come up" >&2
  return 1
}

PRIM_PID='' FOL1_PID='' FOL2_PID='' ROUTER_PID=''
cleanup() {
  for pid in $PRIM_PID $FOL1_PID $FOL2_PID $ROUTER_PID; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

"$DIR/seaserve" -snapshot "$DIR/fb.snap" -journal "$DIR/fb.journal" \
  -name fb -addr "127.0.0.1:$P" &
PRIM_PID=$!
wait_up "$PRIMARY"

"$DIR/seaserve" -follow "$PRIMARY" -replica-dir "$DIR/f1" \
  -poll-every 200ms -addr "127.0.0.1:$F1" &
FOL1_PID=$!
"$DIR/seaserve" -follow "$PRIMARY" -replica-dir "$DIR/f2" \
  -poll-every 200ms -addr "127.0.0.1:$F2" &
FOL2_PID=$!
wait_up "$FOLLOWER1"
wait_up "$FOLLOWER2"

"$DIR/searouter" -addr "127.0.0.1:$RP" \
  -members "$PRIMARY,$FOLLOWER1,$FOLLOWER2" \
  -probe-every 300ms -fail-after 3 -shard-timeout 5s &
ROUTER_PID=$!
wait_up "$ROUTER"

# Writes forward to the primary: a mutate through the router must land there
# (X-Sea-Served-By) and bump the version.
X=$(curl -sf "$PRIMARY/healthz" | grep -o '"nodes":[0-9]*' | grep -o '[0-9]*')
curl -sf -D "$DIR/mutate.hdr" -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_node\",\"text\":[\"smoke\"]},{\"op\":\"add_edge\",\"u\":$X,\"v\":0},{\"op\":\"add_edge\",\"u\":$X,\"v\":1}]}" \
  >"$DIR/mutate.json"
grep -qi "x-sea-served-by: $PRIMARY" "$DIR/mutate.hdr" || {
  echo "router-smoke: mutate not served by the primary" >&2
  cat "$DIR/mutate.hdr" >&2
  exit 1
}
grep -q '"version":1' "$DIR/mutate.json"

# Followers tail the journal and fold the batch through their own catalogs.
for f in "$FOLLOWER1" "$FOLLOWER2"; do
  ok=0
  for _ in $(seq 1 50); do
    if curl -sf "$f/healthz" | grep -q '"version":1'; then ok=1; break; fi
    sleep 0.2
  done
  [ "$ok" = 1 ] || { echo "router-smoke: follower $f never caught up" >&2; exit 1; }
done

# Every member holds the whole catalog, so every in-sync member serves reads:
# nine /search reads round-robin over all three. A round that misses one is
# repeated while the router's prober has yet to see a follower in sync.
spread=0
for _ in $(seq 1 10); do
  : >"$DIR/served.txt"
  for q in 0 1 2 3 4 5 6 7 8; do
    curl -sf -D - -o /dev/null "$ROUTER/search?graph=fb&q=$q&k=2&method=structural" |
      grep -i '^x-sea-served-by:' | tr -d '\r' | cut -d' ' -f2 >>"$DIR/served.txt"
  done
  if grep -qx "$PRIMARY" "$DIR/served.txt" && grep -qx "$FOLLOWER1" "$DIR/served.txt" &&
    grep -qx "$FOLLOWER2" "$DIR/served.txt"; then
    spread=1
    break
  fi
  sleep 0.3
done
[ "$spread" = 1 ] || {
  echo "router-smoke: nine /search reads did not reach all three members" >&2
  sort "$DIR/served.txt" | uniq -c >&2
  exit 1
}

# A /batch is one read: a single member answers all six queries, the new
# node included, and names itself in X-Sea-Served-By.
curl -sf -D "$DIR/batch.hdr" -X POST "$ROUTER/batch" -d \
  "{\"graph\":\"fb\",\"queries\":[$X,0,1,2,3,4],\"method\":\"structural\",\"k\":2}" \
  >"$DIR/batch.json"
head -1 "$DIR/batch.hdr" | grep -q ' 200' || {
  echo "router-smoke: /batch did not answer 200" >&2
  cat "$DIR/batch.hdr" >&2
  exit 1
}
# Each item opens with its query; the per-item metrics' "query" follows a ':'.
n=$(grep -o '[[,]{"query":' "$DIR/batch.json" | wc -l)
[ "$n" -eq 6 ] || {
  echo "router-smoke: /batch answered $n items, want 6" >&2
  cat "$DIR/batch.json" >&2
  exit 1
}
grep -qi "x-sea-served-by: http://" "$DIR/batch.hdr" || {
  echo "router-smoke: /batch names no serving member" >&2
  cat "$DIR/batch.hdr" >&2
  exit 1
}

# A POST /compare is one read: a single member answers it whole, names
# itself in X-Sea-Served-By, and picks the best method itself.
curl -sf -D "$DIR/compare.hdr" -X POST "$ROUTER/compare" -d \
  '{"graph":"fb","q":0,"methods":["structural","sea"],"k":2}' \
  >"$DIR/compare.json"
grep -q '"best":"' "$DIR/compare.json" || {
  echo "router-smoke: /compare has no best" >&2
  cat "$DIR/compare.json" >&2
  exit 1
}
grep -qi "x-sea-served-by: http://" "$DIR/compare.hdr" || {
  echo "router-smoke: /compare names no serving member" >&2
  cat "$DIR/compare.hdr" >&2
  exit 1
}

# Hard-kill the primary: the router must notice, promote the most-caught-up
# follower, and report healthy again under the new primary.
kill -9 "$PRIM_PID"
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
[ -n "$promoted" ] || { echo "router-smoke: no follower was promoted" >&2; exit 1; }
case "$promoted" in
"$FOLLOWER1" | "$FOLLOWER2") ;;
*) echo "router-smoke: promoted $promoted is not a follower" >&2; exit 1 ;;
esac
echo "router-smoke: promoted $promoted"

# Reads survive the failover…
curl -sf -X POST "$ROUTER/batch" -d \
  "{\"graph\":\"fb\",\"queries\":[$X,0],\"method\":\"structural\",\"k\":2}" \
  >"$DIR/failover-batch.json"
grep -q "\"query\":$X" "$DIR/failover-batch.json"

# …and writes land on the promoted follower.
curl -sf -X POST "$ROUTER/admin/mutate" -d \
  "{\"graph\":\"fb\",\"deltas\":[{\"op\":\"add_edge\",\"u\":$X,\"v\":2}]}" \
  >"$DIR/failover-mutate.json"
grep -q '"version":2' "$DIR/failover-mutate.json"

echo "router-smoke OK"
