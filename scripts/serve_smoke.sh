#!/usr/bin/env bash
# End-to-end smoke test for the ioserved query service: start it on a
# random port, ingest the golden log, and require that /v1/report serves
# byte-for-byte what `ioanalyze -format json` renders over the same logs —
# cached renders included. A second dataset is ingested from a columnar
# (.dgc) conversion of the same campaign and its report must match the
# row-oriented reference byte for byte too. Then SIGTERM it and require a
# graceful exit 0. Finally the durability leg: a lake-backed ioserved is
# killed with SIGKILL and restarted on the same -lake with no -ingest —
# the dataset must come back at the same generation (recovered, not
# re-ingested) serving a byte-identical report.
set -euo pipefail

cd "$(dirname "$0")/.."
GOLDEN=internal/darshan/logfmt/testdata/golden_v2.darshan
TMP=$(mktemp -d)
SERVED=
cleanup() {
    [ -n "$SERVED" ] && kill "$SERVED" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    [ -f "$TMP/ioserved.err" ] && sed 's/^/serve-smoke:   ioserved: /' "$TMP/ioserved.err" >&2
    exit 1
}

fetch() { # fetch URL OUTFILE [HEADERFILE]
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -D "${3:-/dev/null}" -o "$2" "$1"
    else
        wget -q -S -O "$2" "$1" 2>"${3:-/dev/null}"
    fi
}

post_json() { # post_json URL BODY OUTFILE
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' \
            -d "$2" -o "$3" "$1"
    else
        wget -q -O "$3" --header='Content-Type: application/json' \
            --post-data="$2" "$1"
    fi
}

echo "serve-smoke: building ioserved and ioanalyze"
go build -o "$TMP/ioserved" ./cmd/ioserved
go build -o "$TMP/ioanalyze" ./cmd/ioanalyze

mkdir "$TMP/logs"
cp "$GOLDEN" "$TMP/logs/"

echo "serve-smoke: rendering the reference report with ioanalyze"
"$TMP/ioanalyze" -dir "$TMP/logs" -format json >"$TMP/want.json" 2>/dev/null
[ -s "$TMP/want.json" ] || fail "ioanalyze produced no report"

echo "serve-smoke: starting ioserved on a random port"
"$TMP/ioserved" -listen 127.0.0.1:0 -addr-file "$TMP/addr" \
    -dataset golden -system summit -ingest "$TMP/logs" 2>"$TMP/ioserved.err" &
SERVED=$!

for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    kill -0 "$SERVED" 2>/dev/null || fail "ioserved died during startup"
    sleep 0.1
done
[ -s "$TMP/addr" ] || fail "ioserved never wrote its address file"
ADDR=$(head -n1 "$TMP/addr")
echo "serve-smoke: up on $ADDR"

fetch "http://$ADDR/healthz" "$TMP/health" || fail "healthz unreachable"

fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/got.json" "$TMP/h1" \
    || fail "report fetch failed"
diff -u "$TMP/want.json" "$TMP/got.json" \
    || fail "served report drifted from ioanalyze output"

# The second fetch comes from the render cache and must be identical bytes.
fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/got2.json" "$TMP/h2" \
    || fail "cached report fetch failed"
grep -qi 'x-cache: hit' "$TMP/h2" || fail "second fetch was not a cache hit"
cmp -s "$TMP/got.json" "$TMP/got2.json" || fail "cached render differs from first render"

fetch "http://$ADDR/v1/datasets" "$TMP/datasets.json" || fail "datasets fetch failed"
grep -q '"golden"' "$TMP/datasets.json" || fail "dataset listing missing the golden dataset"

# Columnar leg: convert the same campaign to a .dgc, ingest it as a second
# dataset over the API, and require its report to match the row-oriented
# reference byte for byte.
echo "serve-smoke: converting the campaign to a columnar file"
"$TMP/ioanalyze" -dir "$TMP/logs" -convert "$TMP/campaign.dgc" 2>/dev/null \
    || fail "columnar conversion failed"
[ -s "$TMP/campaign.dgc" ] || fail "conversion produced an empty .dgc"

echo "serve-smoke: ingesting the columnar campaign as a second dataset"
post_json "http://$ADDR/v1/ingest" \
    "{\"dataset\":\"columnar\",\"system\":\"summit\",\"source\":\"$TMP/campaign.dgc\"}" \
    "$TMP/ingest.json" || fail "columnar ingest over the API failed"

fetch "http://$ADDR/v1/report/columnar?format=json" "$TMP/got-col.json" \
    || fail "columnar report fetch failed"
diff -u "$TMP/want.json" "$TMP/got-col.json" \
    || fail "columnar dataset report drifted from the row-oriented reference"
echo "serve-smoke: columnar report is byte-identical to the row-oriented one"

echo "serve-smoke: draining with SIGTERM"
kill -TERM "$SERVED"
code=0
wait "$SERVED" || code=$?
SERVED=
[ "$code" -eq 0 ] || fail "ioserved exited $code after SIGTERM, want graceful 0"

# Durability leg: ingest into a lake-backed server, kill -9 it, restart on
# the same lake without any -ingest flag, and require the same generation
# back with byte-identical report bytes — recovery, not re-ingestion.
echo "serve-smoke: starting a lake-backed ioserved"
rm -f "$TMP/addr"
"$TMP/ioserved" -listen 127.0.0.1:0 -addr-file "$TMP/addr" -lake "$TMP/lake" \
    -dataset golden -system summit -ingest "$TMP/logs" 2>"$TMP/ioserved.err" &
SERVED=$!
for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    kill -0 "$SERVED" 2>/dev/null || fail "lake-backed ioserved died during startup"
    sleep 0.1
done
[ -s "$TMP/addr" ] || fail "lake-backed ioserved never wrote its address file"
ADDR=$(head -n1 "$TMP/addr")

fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/pre-kill.json" "$TMP/h-pre" \
    || fail "pre-kill report fetch failed"
diff -u "$TMP/want.json" "$TMP/pre-kill.json" \
    || fail "lake-backed report drifted from ioanalyze output"
PRE_GEN=$(grep -i '^x-dataset-generation:' "$TMP/h-pre" | tr -dc '0-9')
[ -n "$PRE_GEN" ] || fail "no generation header on the pre-kill report"

echo "serve-smoke: kill -9 and restart on the same lake"
kill -9 "$SERVED"
wait "$SERVED" 2>/dev/null || true
SERVED=

rm -f "$TMP/addr"
"$TMP/ioserved" -listen 127.0.0.1:0 -addr-file "$TMP/addr" -lake "$TMP/lake" \
    2>"$TMP/ioserved.err" &
SERVED=$!
for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    kill -0 "$SERVED" 2>/dev/null || fail "restarted ioserved died during recovery"
    sleep 0.1
done
[ -s "$TMP/addr" ] || fail "restarted ioserved never wrote its address file"
ADDR=$(head -n1 "$TMP/addr")

fetch "http://$ADDR/v1/report/golden?format=json" "$TMP/post-kill.json" "$TMP/h-post" \
    || fail "post-restart report fetch failed"
cmp -s "$TMP/pre-kill.json" "$TMP/post-kill.json" \
    || fail "report after kill -9 + lake recovery is not byte-identical"
POST_GEN=$(grep -i '^x-dataset-generation:' "$TMP/h-post" | tr -dc '0-9')
[ "$POST_GEN" = "$PRE_GEN" ] \
    || fail "generation changed across restart ($PRE_GEN -> $POST_GEN): dataset was re-ingested, not recovered"

fetch "http://$ADDR/metrics.json" "$TMP/metrics.json" || fail "metrics fetch failed"
RECOVERED=$(tr -d ' \n' <"$TMP/metrics.json" \
    | grep -o '"name":"serve.lake.recovered_datasets","value":[0-9]*' | tr -dc '0-9' || true)
[ -n "$RECOVERED" ] && [ "$RECOVERED" -gt 0 ] \
    || fail "recovery counter serve.lake.recovered_datasets not > 0 (got '$RECOVERED')"
echo "serve-smoke: recovered gen $POST_GEN byte-identical after kill -9"

echo "serve-smoke: draining the recovered server"
kill -TERM "$SERVED"
code=0
wait "$SERVED" || code=$?
SERVED=
[ "$code" -eq 0 ] || fail "recovered ioserved exited $code after SIGTERM, want graceful 0"

echo "serve-smoke: PASS"
