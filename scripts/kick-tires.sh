#!/usr/bin/env bash
# Fast smoke run (< ~2 minutes on a laptop): proves the workspace builds
# and that TIM+ works end-to-end on small inputs, following the
# kick-tires/full split of the ruler artifact scripts.
#
#   ./scripts/kick-tires.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# check <label> <cmd…>: runs the command, then prints "<label>: OK", or
# names the label on stderr and stops the run. A command that fails
# before `&&` does not trip `set -e`, so every check goes through here.
check() {
    local label=$1
    shift
    if "$@"; then
        echo "$label: OK"
    else
        echo "check failed: $label" >&2
        exit 1
    fi
}

echo "Starting Kick Tires"

rm -rf out/kick-tires
mkdir -p out/kick-tires

echo "== build (release) =="
cargo build --release --workspace

echo "== smoke test: Tim + TimPlus end-to-end =="
cargo test -q --release --test smoke

echo "== quickstart example (TIM+ on a 5k-node BA graph) =="
cargo run --release --example quickstart | tee out/kick-tires/quickstart.txt

echo "== CLI round trip: generate -> stats -> select -> evaluate =="
TIM=target/release/tim
GRAPH=out/kick-tires/ba_small.txt
"$TIM" generate ba --out "$GRAPH" --n 2000 --param 4 --seed 1
"$TIM" stats "$GRAPH" | tee out/kick-tires/stats.txt
# --quiet prints exactly one seed label per line.
"$TIM" select "$GRAPH" -k 10 --algo tim+ --model ic --weights wc --eps 0.3 --seed 7 --quiet \
    | tee out/kick-tires/select.txt
SEEDS=$(paste -sd, out/kick-tires/select.txt)
echo "selected seeds: $SEEDS"
"$TIM" evaluate "$GRAPH" --seeds "$SEEDS" --model ic --weights wc --runs 2000 --seed 7 \
    | tee out/kick-tires/evaluate.txt

# A mistyped flag is an error (exit 2), never silently ignored.
if "$TIM" query "$GRAPH" --esp 0.3 < /dev/null 2> out/kick-tires/unknown_flag.txt; then
    echo "tim query accepted an unknown flag" >&2
    exit 1
fi
check "unknown flags are rejected" grep -q 'unknown flag --esp' out/kick-tires/unknown_flag.txt

echo "== snapshot: binary graph round trip =="
SNAP=out/kick-tires/ba_small.timg
"$TIM" snapshot "$GRAPH" --out "$SNAP" | tee out/kick-tires/snapshot.txt
"$TIM" stats "$SNAP" > /dev/null   # transparent .timg input

echo "== query engine: warm pool answers == fresh select =="
POOL=out/kick-tires/ba_small.timp
SESSION=out/kick-tires/session.txt
{
    echo "ping"
    echo "select 10"
    echo "select 5"
    echo "eval $SEEDS"
    echo "marginal $(head -1 out/kick-tires/select.txt) $(sed -n 2p out/kick-tires/select.txt)"
    echo "select 3 fast"
} > "$SESSION"
"$TIM" query "$SNAP" --pool "$POOL" -k 10 --eps 0.3 --seed 7 < "$SESSION" \
    | tee out/kick-tires/query.txt
# The k=10 query answer must be byte-identical to the fresh select run.
sed -n 2p out/kick-tires/query.txt | sed 's/^seeds: //' | tr ' ' '\n' \
    > out/kick-tires/query_seeds.txt
check "warm-pool seeds byte-identical to fresh select" \
    diff out/kick-tires/select.txt out/kick-tires/query_seeds.txt

echo "== server: tim serve answers == tim query answers =="
# Ephemeral port; the bound address appears on stdout as "listening on …".
# Idle reaping is armed: the transcripts must not change.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool "$POOL" -k 10 --eps 0.3 --seed 7 \
    --idle-timeout 30 \
    > out/kick-tires/serve.addr 2> out/kick-tires/serve.log &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/serve.addr 2>/dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' out/kick-tires/serve.addr)
echo "server at $ADDR (pid $SERVE_PID)"
"$TIM" client --addr "$ADDR" < "$SESSION" | tee out/kick-tires/serve_answers.txt
# Two more concurrent scripted clients: every session must agree.
"$TIM" client --addr "$ADDR" < "$SESSION" > out/kick-tires/serve_answers2.txt &
C2=$!
"$TIM" client --addr "$ADDR" < "$SESSION" > out/kick-tires/serve_answers3.txt &
C3=$!
wait $C2 $C3
kill $SERVE_PID 2>/dev/null || true
wait $SERVE_PID 2>/dev/null || true
trap - EXIT
check "tim serve byte-identical to tim query" \
    diff out/kick-tires/query.txt out/kick-tires/serve_answers.txt
check "concurrent client session 2 byte-identical" \
    diff out/kick-tires/serve_answers.txt out/kick-tires/serve_answers2.txt
check "concurrent client session 3 byte-identical" \
    diff out/kick-tires/serve_answers.txt out/kick-tires/serve_answers3.txt
check "tim serve armed the idle timeout" \
    grep -q ', idle timeout 30.0s,' out/kick-tires/serve.log

echo "== server: tim serve --pool adopts the pool's provenance =="
# No -k/--eps/--seed: as with tim query, the loaded pool's values become
# the serving config, so the session answers from that pool, byte for
# byte as tim query did, and the server samples no pool of its own.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool "$POOL" --admin \
    > out/kick-tires/adopt.addr 2> out/kick-tires/adopt.log &
AD_PID=$!
trap 'kill $AD_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/adopt.addr 2>/dev/null && break
    sleep 0.1
done
AD_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/adopt.addr)
echo "pool-adopting server at $AD_ADDR (pid $AD_PID)"
"$TIM" client --addr "$AD_ADDR" --timeout 60 < "$SESSION" > out/kick-tires/adopt_answers.txt
printf 'stats pools\n' | "$TIM" client --addr "$AD_ADDR" --timeout 60 \
    > out/kick-tires/adopt_pools.txt
kill $AD_PID 2>/dev/null || true
wait $AD_PID 2>/dev/null || true
trap - EXIT
check "tim serve --pool without repeated flags byte-identical to tim query" \
    diff out/kick-tires/query.txt out/kick-tires/adopt_answers.txt
check "tim serve --pool sampled no pool (builds=0)" \
    grep -q ' builds=0 ' out/kick-tires/adopt_pools.txt

echo "== multi-graph serve: two-graph use/batch session == two single-graph replays =="
GRAPH2=out/kick-tires/ws_small.txt
"$TIM" generate ws --out "$GRAPH2" --n 1500 --param 6 --seed 2
# Per-graph query scripts (labels 0..n-1 exist in both graphs).
QA=out/kick-tires/mg_queries_a.txt
QB=out/kick-tires/mg_queries_b.txt
printf 'select 5\nselect 8\neval 0,1,2\nmarginal 0,1 2\nselect 4 fast\nping\n' > "$QA"
printf 'select 6\nselect 3\neval 0,1,2\nmarginal 0,1 2\nselect 2 fast\nping\n' > "$QB"
# One server, two named graphs; the second half of the session is batched.
MGSESSION=out/kick-tires/mg_session.txt
{
    echo "use ba"
    cat "$QA"
    echo "use ws"
    echo "batch $(wc -l < "$QB")"
    cat "$QB"
} > "$MGSESSION"
"$TIM" serve --graph ba="$SNAP" --graph ws="$GRAPH2" --addr 127.0.0.1:0 \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/mg_serve.addr 2> out/kick-tires/mg_serve.log &
MG_PID=$!
trap 'kill $MG_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/mg_serve.addr 2>/dev/null && break
    sleep 0.1
done
MG_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/mg_serve.addr)
echo "multi-graph server at $MG_ADDR (pid $MG_PID)"
"$TIM" client --addr "$MG_ADDR" < "$MGSESSION" | tee out/kick-tires/mg_answers.txt
# A scripted session with an error response must make tim client fail.
if printf 'bogus\n' | "$TIM" client --addr "$MG_ADDR" > /dev/null 2>&1; then
    echo "tim client ignored an error response" >&2
    exit 1
fi
echo "tim client exits nonzero on error responses: OK"
kill $MG_PID 2>/dev/null || true
wait $MG_PID 2>/dev/null || true
trap - EXIT
# Ground truth: each graph replayed alone through tim query (one engine,
# no catalog switching, no batching) — the session must match exactly.
{
    echo "using ba"
    "$TIM" query "$SNAP"  -k 10 --eps 0.3 --seed 7 --quiet < "$QA"
    echo "using ws"
    "$TIM" query "$GRAPH2" -k 10 --eps 0.3 --seed 7 --quiet < "$QB"
} > out/kick-tires/mg_expected.txt
check "two-graph use/batch session byte-identical to single-graph replays" \
    diff out/kick-tires/mg_expected.txt out/kick-tires/mg_answers.txt

echo "== warm-state tenancy: two-phase restart drill =="
POOLDIR=out/kick-tires/pools
rm -rf "$POOLDIR"
# Phase 1 (cold): serve with write-back, replay the session, check the
# counters admit the cold build, then kill the process.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool-dir "$POOLDIR" --persist-pools --admin \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/warm1.addr 2> out/kick-tires/warm1.log &
W1=$!
trap 'kill $W1 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/warm1.addr 2>/dev/null && break
    sleep 0.1
done
ADDR1=$(sed -n 's/^listening on //p' out/kick-tires/warm1.addr)
echo "cold server at $ADDR1 (pid $W1), pools in $POOLDIR"
"$TIM" client --addr "$ADDR1" --timeout 60 < "$SESSION" > out/kick-tires/restart_cold.txt
printf 'select 10\nstats pools\n' | "$TIM" client --addr "$ADDR1" --timeout 60 \
    > out/kick-tires/restart_cold_pools.txt
check "cold phase sampled its pool (builds=1)" \
    grep -q 'builds=1 loads=0' out/kick-tires/restart_cold_pools.txt
# The line closes with the cached pools' total θ and bytes, then the
# count of requests whose answer panicked (none here).
COLD_SIZE=$(grep -Eo ' theta=[1-9][0-9]* pool_bytes=[1-9][0-9]* recoveries=0$' out/kick-tires/restart_cold_pools.txt) \
    || { echo "stats pools does not report theta=, pool_bytes= and recoveries=0" >&2; exit 1; }
COLD_THETA=${COLD_SIZE% pool_bytes=*}
COLD_SIZE=${COLD_SIZE% recoveries=0}
echo "stats pools reports the pool size:$COLD_SIZE: OK"
kill $W1 2>/dev/null || true
wait $W1 2>/dev/null || true
trap - EXIT
check "pool spilled to the store before the kill" \
    test -n "$(find "$POOLDIR" -name '*.timp' 2>/dev/null)"
# Phase 2 (warm): restart against the same store, read-through only. The
# spill is a v2 file, so the restore maps it and verifies it before it
# serves. The transcript must be byte-for-byte identical with zero pool
# builds, and the counters must show the mapped path served it
# (mmap_opens + verifies, not heap_loads).
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool-dir "$POOLDIR" --admin \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/warm2.addr 2> out/kick-tires/warm2.log &
W2=$!
trap 'kill $W2 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/warm2.addr 2>/dev/null && break
    sleep 0.1
done
ADDR2=$(sed -n 's/^listening on //p' out/kick-tires/warm2.addr)
echo "warm server at $ADDR2 (pid $W2)"
"$TIM" client --addr "$ADDR2" --timeout 60 < "$SESSION" > out/kick-tires/restart_warm.txt
check "restart transcripts byte-identical" \
    diff out/kick-tires/restart_cold.txt out/kick-tires/restart_warm.txt
printf 'select 10\nstats pools\n' | "$TIM" client --addr "$ADDR2" --timeout 60 \
    > out/kick-tires/restart_warm_pools.txt
check "warm phase loaded from the store, zero rebuilds" \
    grep -q 'builds=0 loads=1' out/kick-tires/restart_warm_pools.txt
check "restore went through the mmap path (mmap_opens=1, heap_loads=0)" \
    grep -q 'mmap_opens=1 verifies=1 heap_loads=0' out/kick-tires/restart_warm_pools.txt
grep -Eq "$COLD_THETA pool_bytes=[1-9][0-9]* recoveries=0\$" out/kick-tires/restart_warm_pools.txt \
    || { echo "mapped restore reports a pool θ other than the cold build's" >&2; exit 1; }
echo "mapped pool reports the cold build's${COLD_THETA}: OK"
# Runtime tenancy: attach the ws graph live, query it, detach it again —
# every answer must be a non-error (tim client asserts that itself).
printf 'attach ws-live=%s\nuse ws-live\nselect 4\nstats\ndetach ws-live\nselect 2\npersist\n' "$GRAPH2" \
    | "$TIM" client --addr "$ADDR2" --timeout 60 \
    | tee out/kick-tires/attach_detach.txt
grep -q '^attached ws-live$' out/kick-tires/attach_detach.txt
check "runtime attach/detach with drain" \
    grep -q '^detached ws-live$' out/kick-tires/attach_detach.txt
kill $W2 2>/dev/null || true
wait $W2 2>/dev/null || true
trap - EXIT

echo "== out-of-core: v2 snapshot served mapped == text served on the heap =="
# Bake the WC probabilities into a v2 snapshot, then run the same scripted
# session over two inputs: the text edge list on the heap (--weights wc)
# and the v2 snapshot, mapped (--weights keep). Through `query` and
# through `serve`, every transcript must be byte-identical.
SNAP2=out/kick-tires/ba_small.wc.timg
"$TIM" snapshot "$GRAPH" --out "$SNAP2" --weights wc \
    | tee out/kick-tires/snapshot_v2.txt
"$TIM" query "$GRAPH" -k 10 --eps 0.3 --seed 7 --weights wc < "$SESSION" \
    > out/kick-tires/oc_heap.txt
"$TIM" query "$SNAP2" -k 10 --eps 0.3 --seed 7 --weights keep < "$SESSION" \
    > out/kick-tires/oc_mmap.txt
check "mmap-backed answers byte-identical to heap answers" \
    diff out/kick-tires/oc_heap.txt out/kick-tires/oc_mmap.txt
# Serve each input and replay the session through a live client too.
for side in heap:"$GRAPH":wc mmap:"$SNAP2":keep; do
    IFS=: read -r NAME INPUT WEIGHTS <<< "$side"
    "$TIM" serve "$INPUT" --addr 127.0.0.1:0 --weights "$WEIGHTS" -k 10 --eps 0.3 --seed 7 \
        > out/kick-tires/oc_serve_$NAME.addr 2> out/kick-tires/oc_serve_$NAME.log &
    OC_PID=$!
    trap 'kill $OC_PID 2>/dev/null || true' EXIT
    for _ in $(seq 1 100); do
        grep -q '^listening on ' out/kick-tires/oc_serve_$NAME.addr 2>/dev/null && break
        sleep 0.1
    done
    OC_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/oc_serve_$NAME.addr)
    echo "$NAME-backed server at $OC_ADDR (pid $OC_PID)"
    "$TIM" client --addr "$OC_ADDR" --timeout 60 < "$SESSION" \
        > out/kick-tires/oc_serve_${NAME}_answers.txt
    kill $OC_PID 2>/dev/null || true
    wait $OC_PID 2>/dev/null || true
    trap - EXIT
    check "$NAME-backed serve byte-identical to heap query" \
        diff out/kick-tires/oc_heap.txt out/kick-tires/oc_serve_${NAME}_answers.txt
done

echo "== experiment driver (quick): Figure 4 phase breakdown =="
cargo run --release -p tim_bench --bin experiments -- fig4 --quick --scale 0.2 \
    | tee out/kick-tires/fig4_quick.txt

echo
echo "Kick Tires passed; artifacts in out/kick-tires/"
