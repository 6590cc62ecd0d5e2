#!/usr/bin/env bash
# End-to-end smoke test for the iorouter cluster: three lake-backed
# ioserved replicas behind the router, replication 2, an API-keyed edge.
# The contract under test: every 200 the router serves is byte-identical
# to `ioanalyze -format json` over the same logs, even while replicas are
# being kill -9'd one at a time — and a killed replica restarted on its
# lake rejoins the cluster. Finally the router itself drains on SIGTERM
# with exit 0.
set -euo pipefail

cd "$(dirname "$0")/.."
GOLDEN=internal/darshan/logfmt/testdata/golden_v2.darshan
TMP=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "cluster-smoke: FAIL: $*" >&2
    for f in "$TMP"/*.err; do
        [ -f "$f" ] && sed "s|^|cluster-smoke:   $(basename "$f" .err): |" "$f" >&2
    done
    exit 1
}

fetch() { # fetch URL OUTFILE [HEADERFILE]
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -H 'X-API-Key: smoketest' -D "${3:-/dev/null}" -o "$2" "$1"
    else
        wget -q -S -O "$2" --header='X-API-Key: smoketest' "$1" 2>"${3:-/dev/null}"
    fi
}

post_json() { # post_json URL BODY OUTFILE
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' \
            -H 'X-API-Key: smoketest' -d "$2" -o "$3" "$1"
    else
        wget -q -O "$3" --header='Content-Type: application/json' \
            --header='X-API-Key: smoketest' --post-data="$2" "$1"
    fi
}

wait_addr() { # wait_addr ADDRFILE PID WHAT -> prints the address
    local i
    for i in $(seq 1 100); do
        [ -s "$1" ] && break
        kill -0 "$2" 2>/dev/null || fail "$3 died during startup"
        sleep 0.1
    done
    [ -s "$1" ] || fail "$3 never wrote its address file"
    head -n1 "$1"
}

echo "cluster-smoke: building ioserved, iorouter, and ioanalyze"
go build -o "$TMP/ioserved" ./cmd/ioserved
go build -o "$TMP/iorouter" ./cmd/iorouter
go build -o "$TMP/ioanalyze" ./cmd/ioanalyze

mkdir "$TMP/logs"
cp "$GOLDEN" "$TMP/logs/"

echo "cluster-smoke: rendering the reference report with ioanalyze"
"$TMP/ioanalyze" -dir "$TMP/logs" -format json >"$TMP/want.json" 2>/dev/null
[ -s "$TMP/want.json" ] || fail "ioanalyze produced no report"

start_replica() { # start_replica INDEX [LISTEN] -> appends to PIDS, sets R<i>_ADDR/PID
    local i=$1 listen=${2:-127.0.0.1:0}
    rm -f "$TMP/r$i.addr"
    "$TMP/ioserved" -listen "$listen" -addr-file "$TMP/r$i.addr" \
        -lake "$TMP/lake$i" 2>>"$TMP/replica$i.err" &
    local pid=$!
    PIDS+=("$pid")
    eval "R${i}_PID=$pid"
    REPLICA_ADDR=$(wait_addr "$TMP/r$i.addr" "$pid" "replica $i")
    eval "R${i}_ADDR=\$REPLICA_ADDR"
}

echo "cluster-smoke: starting 3 lake-backed replicas"
start_replica 0
start_replica 1
start_replica 2

echo "cluster-smoke: starting the router (rf=2, API key required)"
"$TMP/iorouter" -listen 127.0.0.1:0 -addr-file "$TMP/router.addr" \
    -replica "$R0_ADDR" -replica "$R1_ADDR" -replica "$R2_ADDR" \
    -replication 2 -probe-every 100ms -probe-timeout 500ms \
    -attempt-timeout 2s -breaker-threshold 2 -breaker-open 200ms \
    -apikey 'smoketest=smoke:1000:1000' 2>"$TMP/iorouter.err" &
ROUTER=$!
PIDS+=("$ROUTER")
ADDR=$(wait_addr "$TMP/router.addr" "$ROUTER" "iorouter")
echo "cluster-smoke: router up on $ADDR"

# The auth edge: a request without the key must be rejected with 401.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/datasets" 2>/dev/null \
    || wget -q -S -O /dev/null "http://$ADDR/v1/datasets" 2>&1 | awk '/HTTP\//{c=$2} END{print c}')
[ "$code" = "401" ] || fail "keyless request got $code, want 401"
echo "cluster-smoke: keyless request correctly rejected with 401"

echo "cluster-smoke: ingesting the golden campaign through the router"
post_json "http://$ADDR/v1/ingest" \
    "{\"dataset\":\"golden\",\"system\":\"summit\",\"source\":\"$TMP/logs\"}" \
    "$TMP/ingest.json" || fail "ingest through the router failed"
REPLICAS=$(grep -o '"replica"' "$TMP/ingest.json" | wc -l)
[ "$REPLICAS" -eq 2 ] || fail "ingest landed on $REPLICAS replicas, want 2 (rf=2)"

fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/got.json" \
    || fail "report fetch through the router failed"
diff -u "$TMP/want.json" "$TMP/got.json" \
    || fail "routed report drifted from ioanalyze output"
echo "cluster-smoke: routed report is byte-identical to ioanalyze"

# Find the dataset's owners so the kills target replicas that matter.
fetch "http://$ADDR/v1/cluster?dataset=golden" "$TMP/cluster.json" \
    || fail "cluster status fetch failed"

kill_of() { # kill_of ADDR -> the replica index serving that address
    for i in 0 1 2; do
        eval "a=\$R${i}_ADDR"
        [ "$a" = "$1" ] && { echo "$i"; return; }
    done
    fail "unknown replica address $1"
}

OWNERS=$(tr -d ' \n' <"$TMP/cluster.json" \
    | sed -n 's/.*"owners":\[\([^]]*\)\].*/\1/p' | tr -d '"' | tr ',' ' ')
[ -n "$OWNERS" ] || fail "cluster status reported no owners for golden"
echo "cluster-smoke: golden is owned by: $OWNERS"

# Failover leg: kill -9 each owner in turn; the report must keep serving
# byte-identically from the surviving owner, then the killed replica is
# restarted on its lake and rejoins before the next kill.
for OWNER_ADDR in $OWNERS; do
    i=$(kill_of "$OWNER_ADDR")
    eval "pid=\$R${i}_PID"
    echo "cluster-smoke: kill -9 owner replica $i ($OWNER_ADDR)"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true

    ok=
    for _ in $(seq 1 50); do
        if fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/during.json" 2>/dev/null \
            && cmp -s "$TMP/want.json" "$TMP/during.json"; then
            ok=1
            break
        fi
        sleep 0.1
    done
    [ -n "$ok" ] || fail "report unavailable or drifted with replica $i down"
    echo "cluster-smoke: report still byte-identical with replica $i down"

    # Restart on the SAME address (the router knows the fleet by address)
    # and the same lake: the replica must recover its shard and rejoin.
    echo "cluster-smoke: restarting replica $i on its lake at $OWNER_ADDR"
    start_replica "$i" "$OWNER_ADDR"
done

# Steady state after all the chaos: several consecutive clean, identical
# fetches — the cluster has fully recovered.
for _ in $(seq 1 5); do
    fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/steady.json" \
        || fail "steady-state fetch failed"
    cmp -s "$TMP/want.json" "$TMP/steady.json" || fail "steady-state report drifted"
done
echo "cluster-smoke: steady-state service is clean after recovery"

fetch "http://$ADDR/v1/datasets" "$TMP/datasets.json" || fail "datasets fetch failed"
grep -q '"golden"' "$TMP/datasets.json" || fail "dataset listing missing golden"

echo "cluster-smoke: draining the router with SIGTERM"
kill -TERM "$ROUTER"
code=0
wait "$ROUTER" || code=$?
[ "$code" -eq 0 ] || fail "iorouter exited $code after SIGTERM, want graceful 0"

echo "cluster-smoke: PASS"
