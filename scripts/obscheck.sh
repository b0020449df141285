#!/usr/bin/env bash
# obscheck boots a 3-node blockserverd cluster plus the instrumented
# tcpcluster demo (which performs healthy, degraded, corrupt, and
# post-repair reads), scrapes every /metrics endpoint through
# `carouselctl stats`, and asserts that the expected metric families are
# exported and that the degraded-read counters actually moved.
#
# A second phase then boots a master-managed cluster (carouselmaster +
# four blockserverd members with obs endpoints), runs a traced put/get
# through master-owned placements, and asserts that `carouselctl trace`
# stitches the server-side spans of that read, that the master's
# /metrics exports nonzero cluster_* roll-up gauges, and that the
# windowed *_p99 tail gauges are live on the data path. A final repeated
# get with -cache asserts the stripe cache serves warm passes (nonzero
# hits on the client's own Cache.Stats line).
#
# Every family named here is a row of the DESIGN.md §8 family table whose
# reader column says obscheck, and the other way round: TestMetricManifest
# fails when the two drift.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/blockserverd ./cmd/carouselctl ./cmd/carouselmaster ./examples/tcpcluster

# Three standalone block servers, each with its own observability endpoint.
for i in 0 1 2; do
    "$BIN/blockserverd" -addr "127.0.0.1:$((17170 + i))" -obs-addr "127.0.0.1:$((18170 + i))" &
done
# The demo cluster drives real traffic (including a fallback read and a
# corrupt source) and holds its endpoint open for the scrape.
"$BIN/tcpcluster" -obs-addr 127.0.0.1:18173 -hold 60s >/dev/null &

ADDRS=127.0.0.1:18170,127.0.0.1:18171,127.0.0.1:18172,127.0.0.1:18173

# Wait for every endpoint to come up and for the demo to finish: repairs
# are its last instrumented phase, so a nonzero repair counter means the
# degraded read and corrupt-source events are already merged in.
OUT=""
for _ in $(seq 1 100); do
    if OUT=$("$BIN/carouselctl" stats -addrs "$ADDRS" -raw 2>/dev/null) \
        && grep -q '^store_repairs_total [1-9]' <<<"$OUT"; then
        break
    fi
    OUT=""
    sleep 0.3
done
if [ -z "$OUT" ]; then
    echo "obscheck: endpoints never became scrapable with a completed demo run" >&2
    exit 1
fi

# Every instrumented subsystem must export the families this script is
# the reader of.
for fam in \
    store_parallel_stripes_total \
    store_fallback_stripes_total \
    store_corrupt_sources_total \
    store_bytes_fetched_total \
    store_read_ns_bucket \
    store_repairs_total \
    blockserver_client_rpcs_total \
    blockserver_client_rpc_ns_bucket \
    blockserver_server_rpcs_total \
    blockserver_server_open_connections \
    codeplan_run_ns_bucket \
    workpool_workers \
; do
    grep -q "^$fam" <<<"$OUT" || { echo "obscheck: family $fam missing from merged scrape" >&2; exit 1; }
done

# The demo corrupts a block and kills a server: those events must be
# visible cluster-wide.
for counter in store_fallback_stripes_total store_corrupt_sources_total store_repairs_total; do
    v=$(awk -v c="$counter" '$1 == c {print $2}' <<<"$OUT")
    if [ -z "$v" ] || [ "$v" -lt 1 ]; then
        echo "obscheck: $counter = ${v:-absent}, want >= 1 after the demo" >&2
        exit 1
    fi
done

# The human-readable summary renders without error too.
"$BIN/carouselctl" stats -addrs "$ADDRS" >/dev/null

echo "obscheck: all metric families present; degraded-read counters nonzero"

# ---------------------------------------------------------------------------
# Phase 2: master-managed cluster — trace stitching and cluster_* roll-ups.
# A small 4/2/3/3 code keeps the member count script-sized; the fast
# heartbeat makes the piggybacked health counters land within a second.
CODE="-n 4 -k 2 -d 3 -p 3"
MASTER=127.0.0.1:17189
MOBS=127.0.0.1:18189
"$BIN/carouselmaster" -addr "$MASTER" -obs-addr "$MOBS" $CODE -heartbeat 250ms &
for i in 0 1 2 3; do
    "$BIN/blockserverd" -addr "127.0.0.1:$((17190 + i))" \
        -master "$MASTER" -obs-addr "127.0.0.1:$((18190 + i))" $CODE &
done

# A put needs four alive members; registration happens on daemon startup,
# so polling the put doubles as the readiness wait.
head -c 200000 /dev/urandom >"$BIN/payload"
PUT=""
for _ in $(seq 1 100); do
    if PUT=$("$BIN/carouselctl" cluster put -master "$MASTER" $CODE \
        -name obscheck "$BIN/payload" 2>/dev/null); then
        break
    fi
    PUT=""
    sleep 0.3
done
if [ -z "$PUT" ]; then
    echo "obscheck: master-managed put never succeeded" >&2
    exit 1
fi

# The get prints the read's trace ID; that is the handle the stitched
# cross-node trace is collected by.
GET=$("$BIN/carouselctl" cluster get -master "$MASTER" $CODE obscheck "$BIN/got")
cmp -s "$BIN/payload" "$BIN/got" || { echo "obscheck: get roundtrip mismatch" >&2; exit 1; }
TRACE=$(awk '$1 == "trace" {print $2; exit}' <<<"$GET")
if [ -z "$TRACE" ] || [ "$TRACE" = "0" ]; then
    echo "obscheck: cluster get reported no trace ID: $GET" >&2
    exit 1
fi

# The server-side spans land in each daemon's ring just after the client's
# read returns, so poll the collection briefly. The stitched tree must
# contain server-side spans gathered from more than one node.
TOUT=""
for _ in $(seq 1 50); do
    if TOUT=$("$BIN/carouselctl" trace -master "$MASTER" "$TRACE" 2>/dev/null) \
        && grep -q 'server\.' <<<"$TOUT" \
        && grep -Eq 'from ([2-9]|[0-9]{2,}) node' <<<"$TOUT"; then
        break
    fi
    TOUT=""
    sleep 0.2
done
if [ -z "$TOUT" ]; then
    echo "obscheck: trace $TRACE never stitched server spans from >= 2 nodes" >&2
    "$BIN/carouselctl" trace -master "$MASTER" "$TRACE" >&2 || true
    exit 1
fi

# The master aggregates heartbeat-piggybacked member health into the
# cluster_* gauges on its own obs endpoint; the put's blocks must show up
# there once the next beats land.
MOUT=""
for _ in $(seq 1 50); do
    if MOUT=$("$BIN/carouselctl" stats -addrs "$MOBS" -raw 2>/dev/null) \
        && grep -Eq '^cluster_blocks [1-9]' <<<"$MOUT"; then
        break
    fi
    MOUT=""
    sleep 0.2
done
if [ -z "$MOUT" ]; then
    echo "obscheck: master never rolled the put's blocks into cluster_blocks" >&2
    exit 1
fi
for fam in cluster_files cluster_block_bytes cluster_tx_rate_bps \
    cluster_rpc_p99_ns; do
    grep -q "^$fam" <<<"$MOUT" || { echo "obscheck: $fam missing from master scrape" >&2; exit 1; }
done

# The windowed tail gauges on the data path must be live: the get just
# exercised every member, so the sliding-window server RPC p99 is fresh.
DOUT=$("$BIN/carouselctl" stats -addrs 127.0.0.1:18190,127.0.0.1:18191,127.0.0.1:18192,127.0.0.1:18193 -raw)
grep -Eq '^blockserver_server_rpc_window_ns_p99 [1-9]' <<<"$DOUT" \
    || { echo "obscheck: blockserver_server_rpc_window_ns_p99 is zero or missing" >&2; exit 1; }

# A repeated traced get with the stripe cache enabled must serve its warm
# passes from memory: the first pass fills the cache, so -count 3 has to
# report nonzero stripe hits on the printed cache line.
CGET=$("$BIN/carouselctl" cluster get -master "$MASTER" $CODE -count 3 -cache 4 obscheck "$BIN/got2")
cmp -s "$BIN/payload" "$BIN/got2" || { echo "obscheck: cached get roundtrip mismatch" >&2; exit 1; }
HITS=$(awk '$1 == "cache:" {print $2; exit}' <<<"$CGET")
if [ -z "$HITS" ] || [ "$HITS" -lt 1 ]; then
    echo "obscheck: cached repeated get reported ${HITS:-no} stripe hits, want >= 1" >&2
    echo "$CGET" >&2
    exit 1
fi

echo "obscheck: stitched trace $TRACE across nodes; cluster_* roll-ups and windowed p99 gauges live; cached get hit $HITS stripes"
