GO ?= go

.PHONY: check vet fmtcheck apilint ingestlint durablelint foldlint staticcheck govulncheck build test race race-short bench benchcheck fuzz serve-smoke cluster-smoke load-smoke

## check: the full CI gate — vet, gofmt, apilint, ingestlint, durablelint,
## foldlint, staticcheck + govulncheck (when installed), build, and the test
## suite under the race detector
check: vet fmtcheck apilint ingestlint durablelint foldlint staticcheck govulncheck build race

vet:
	$(GO) vet ./...

## fmtcheck: every Go file in the tree is gofmt-clean
fmtcheck:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "fmtcheck: not gofmt-clean (run gofmt -w):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "fmtcheck: ok"

## apilint: every error body the HTTP services write must go through the
## internal/httpapi envelope — ad-hoc http.Error calls and raw
## fmt.Fprint*(w, ...) writes in the serve and cluster handlers are how
## the error contract rots, so they are banned outright (test files may
## still fake misbehaving upstreams however they like). A route likewise
## exists only as a row of the service's httpapi.Table: a hand-registered
## mux.HandleFunc/Handle beside the table would be missing from GET /v1,
## unchecked and uncounted, so those calls are banned there too.
apilint:
	@bad=$$(grep -rnE 'http\.Error\(|fmt\.Fprint(f|ln)?\(w[,)]|\.HandleFunc\(|\.Handle\(' \
		internal/serve internal/cluster --include='*.go' \
		--exclude='*_test.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "apilint: ad-hoc HTTP error/body writes or hand-registered routes (use internal/httpapi):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "apilint: ok"

## ingestlint: what kind of source a path is gets decided in one place,
## core.Open (internal/core/source.go). Anywhere else — the two format
## packages aside, which check their own headers — a header sniff, a
## .dgc/.dgar suffix test, or a comparison against a format magic is a
## second dispatcher growing back, so non-test code under internal/ and
## cmd/ may not contain one (code that is handed a path of a known kind
## opens it; it does not choose)
ingestlint:
	@bad=$$(grep -rnE 'SniffFile\(|HasSuffix\([^)]*"\.(dgc|dgar)"|[!=]= *(logfmt\.(Archive)?Magic|colfmt\.Magic)|(logfmt\.(Archive)?Magic|colfmt\.Magic)(\[:\])? *[!=]=' \
		internal cmd --include='*.go' --exclude='*_test.go' \
		| grep -vE '^internal/(core/source\.go|darshan/(logfmt|colfmt)/)' || true); \
	if [ -n "$$bad" ]; then \
		echo "ingestlint: source-kind dispatch outside core.Open (call core.Ingest/core.Convert with the path):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "ingestlint: ok"

## durablelint: there is one durable file format and one atomic file
## replacement, both in internal/checkpoint. A second gob envelope or a
## fifth hand-rolled temp → fsync → rename is how "flip one bit, lose the
## lake" grew the first time, so non-test code anywhere else may not import
## encoding/gob or call os.CreateTemp (use checkpoint.Save/Journal and
## checkpoint.CreateAtomic), and os.Rename is allowed only there and for the
## quarantine move in internal/core/ingest.go, which moves a file aside
## rather than committing one
durablelint:
	@bad=$$(grep -rnE '"encoding/gob"|os\.CreateTemp\(|os\.Rename\(' \
		internal cmd bench examples --include='*.go' --exclude='*_test.go' \
		| grep -vE '^internal/checkpoint/|^internal/core/ingest\.go:[0-9]+:.*os\.Rename\(' || true); \
	if [ -n "$$bad" ]; then \
		echo "durablelint: durable encoding or atomic replace outside internal/checkpoint:"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "durablelint: ok"

## foldlint: a log's records are grouped per file in one place,
## darshan.Grouper (internal/darshan/group.go), and everything downstream —
## the aggregator's folds, the columnar writer, the predict and core scans —
## reads the rows it produces. Indexing a record's raw counters anywhere in
## those packages is a second grouping growing back, with its own idea of
## which records make up a file; so is a per-module view type like the two
## copies of modView/fileView this rule replaced, wherever it appears
foldlint:
	@bad=$$( { grep -rnE '\.F?Counters\[' \
			internal/analysis internal/darshan/colfmt internal/predict internal/core \
			--include='*.go' --exclude='*_test.go'; \
		grep -rnE 'type (modView|fileView)\b' . --include='*.go'; } || true); \
	if [ -n "$$bad" ]; then \
		echo "foldlint: raw counter reads or a second per-file view outside darshan.Grouper (consume darshan.LogRows):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "foldlint: ok"

## staticcheck: runs only when the binary is on PATH, so environments
## without it (e.g. hermetic containers) still pass `make check`
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## govulncheck: runs only when the binary is on PATH, same contract as
## staticcheck above
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-short: the fast half of the CI matrix — race detector over the
## tests that skip campaign generation
race-short:
	$(GO) test -race -short ./...

## bench: the paper-artifact and ingestion benchmarks with allocation stats
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

## benchcheck: allocation-regression gate — reruns the ingestion and
## observability benchmarks and compares allocs/op and B/op against
## bench_baseline.json (regenerate with `go run ./cmd/benchcheck -update`
## when a change moves the numbers on purpose)
benchcheck:
	$(GO) run ./cmd/benchcheck

## serve-smoke: end-to-end check of the ioserved query service — start it
## on a random port, ingest the golden log, diff /v1/report bytes against
## `ioanalyze -format json`, and require a graceful SIGTERM drain
serve-smoke:
	scripts/serve_smoke.sh

## cluster-smoke: end-to-end check of the iorouter cluster — three
## lake-backed replicas behind the router (rf=2, API keys), kill -9 each
## owner in turn while requiring byte-identical reports, restart killed
## replicas on their lakes, and require a graceful router drain
cluster-smoke:
	scripts/cluster_smoke.sh

## load-smoke: the SLO gate — three fixture-booted replicas behind the
## router, ioloadtest's open-loop 1k-client scenario checked against
## slo_baseline.json (zero byte-divergent 200s, bounded error rate), and
## a degraded replica that must FAIL the gate. Scale up with
## LOAD_SCALE=10 for a local 10k-client soak.
load-smoke:
	scripts/load_smoke.sh

## fuzz: short fuzzing smoke over the untrusted-input decoders, the section
## inflater against compress/zlib, the durable record log's reader, and the
## row-vs-columnar fold identity; -fuzz must match exactly one target, hence
## one invocation each
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzArchiveReader -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzInflate -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzColumnRead -fuzztime=20s ./internal/darshan/colfmt
	$(GO) test -fuzz=FuzzRecordLog -fuzztime=20s ./internal/checkpoint
	$(GO) test -fuzz=FuzzRowVsColumnar -fuzztime=20s ./internal/analysis
