GO ?= go

.PHONY: check vet staticcheck govulncheck build test race race-short bench fuzz

## check: the full CI gate — vet, staticcheck + govulncheck (when
## installed), build, and the test suite under the race detector. The
## suite includes lint_test.go, whose rule table holds the gofmt, HTTP
## envelope, ingest, durable-format and fold rules and the unused-export
## rule, the cmd/ioserved and cmd/iorouter tests, which run the real
## daemons (kill -9, lake recovery, SIGTERM drain), the cmd/ioloadtest SLO
## gate over an in-process cluster, and the exact allocation pins
check: vet staticcheck govulncheck build race

vet:
	$(GO) vet ./...

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

## fuzz: short fuzzing smoke over the untrusted-input decoders, the section
## inflater against compress/zlib, the durable record log's reader, the
## aggregator state's and the lake record's decoders, the row-vs-columnar
## fold identity, the four spec parsers that take flags and scenario files,
## the ingest request body and the query-string parser; -fuzz must match
## exactly one target, hence one invocation each
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzArchiveReader -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzInflate -fuzztime=20s ./internal/darshan/logfmt
	$(GO) test -fuzz=FuzzColumnRead -fuzztime=20s ./internal/darshan/colfmt
	$(GO) test -fuzz=FuzzRecordLog -fuzztime=20s ./internal/checkpoint
	$(GO) test -fuzz=FuzzRowVsColumnar -fuzztime=20s ./internal/analysis
	$(GO) test -fuzz=FuzzStateDecode -fuzztime=20s ./internal/analysis
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=20s ./internal/iosim/faults
	$(GO) test -fuzz=FuzzParseKeySpec -fuzztime=20s ./internal/cluster
	$(GO) test -fuzz=FuzzParseScenario -fuzztime=20s ./internal/loadtest
	$(GO) test -fuzz=FuzzParseFixtureSpec -fuzztime=20s ./internal/serve
	$(GO) test -fuzz=FuzzIngestRequest -fuzztime=20s ./internal/serve
	$(GO) test -fuzz=FuzzLakeRecord -fuzztime=20s ./internal/serve
	$(GO) test -fuzz=FuzzQuery -fuzztime=20s ./internal/httpapi
