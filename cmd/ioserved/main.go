// Command ioserved is the long-running query side of the pipeline: it
// ingests Darshan campaigns into named in-memory datasets and answers
// report queries over HTTP, so a year of production logs is analyzed once
// and interrogated many times.
//
// Usage:
//
//	ioserved -listen :8080 -ingest /path/to/logs [-dataset default]
//	         [-system summit] [-max-inflight 64] [-cache-bytes 33554432]
//	         [-lake /var/lib/ioserved] [-compact-every 16]
//	         [-query-timeout 30s]
//
// Endpoints (all JSON bodies carry an explicit schema_version):
//
//	GET  /v1                        — machine-readable route index: every
//	                                  endpoint with methods, accepted
//	                                  query params, and document schema
//	                                  version (see docs/api.md)
//	GET  /v1/datasets               — list datasets with campaign summaries
//	GET  /v1/report/{dataset}       — the full report; ?section=table2
//	                                  restricts to one section, ?format=
//	                                  selects text (default), json, or csv.
//	                                  The json body is byte-identical to
//	                                  `ioanalyze -format json` over the
//	                                  same logs.
//	GET  /v1/compare/{a}/{b}        — two datasets' summaries side by side
//	GET  /v1/predict/{dataset}      — the predictive-analytics document:
//	                                  monthly series, burst forecast with
//	                                  confidence band, placement hints,
//	                                  and the iosim replay of the advice
//	POST /v1/ingest                 — {"dataset","system","source"}: fold
//	                                  more logs in; readers keep the old
//	                                  generation until the new one lands
//	GET  /healthz                   — liveness: 200 while the process runs
//	GET  /readyz                    — readiness: 503 during lake replay,
//	                                  boot ingests, compaction, and drain
//	GET  /metrics, /metrics.json
//
// Every non-200 carries the structured error envelope
// {"error":{"code","message","retry_after_ms"}} with a stable code from
// the closed taxonomy in docs/api.md (/readyz's plain-text 503 aside):
// unknown query parameters are rejected (400 bad_param) rather than
// ignored, and an unknown path or a wrong method is a not_found / 405
// bad_request envelope, not net/http's plain text.
//
// Rendered reports are cached (LRU, byte-bounded) keyed by dataset
// generation, so repeated queries cost a map lookup and re-ingestion
// invalidates naturally. Query concurrency is bounded; excess load is
// shed immediately with 429 + Retry-After rather than queued. Each query
// also gets a server-side deadline (-query-timeout): a query that cannot
// render in time gets 503 and releases its concurrency slot instead of
// wedging it.
//
// -ingest may repeat; each path (directory, .dgar archive, .dgc columnar
// campaign, or single .darshan log — told apart by header, not by name)
// folds into the -dataset dataset before the server reports
// ready. -fixture name:logs[:seed] (repeatable) synthesizes a
// deterministic corpus (serve.WriteFixture — a pure function of system,
// count, and seed) and ingests it at boot: replicas started with the
// same spec publish byte-identical datasets, which is what the load-test
// harness's divergence check leans on. With -addr-file the bound address
// is written to the given path once the server is ready — for scripts
// that start the service on ":0".
//
// With -lake the datasets are durable: every ingest appends one fsync'd,
// CRC-framed record to the dataset's log under the lake directory
// (<lake>/datasets/<name>/log) before it becomes visible, and a restart
// with the same -lake replays the logs and republishes every dataset at
// its last committed generation — byte-identical reports, no re-ingest,
// even after a kill -9. A log damaged mid-file fails the boot naming the
// dataset; nothing is truncated or deleted. The listener binds before the
// replay: /healthz answers immediately while /readyz holds 503 until
// recovery completes, so supervisors can tell "starting" from "dead".
// -compact-every bounds recovery cost by replacing a dataset's log with
// the single record of its current state once that many accumulate
// (negative disables compaction).
//
// On SIGINT/SIGTERM the service flips /readyz to not-ready, stops
// accepting connections, drains in-flight requests (up to
// -drain-timeout), and exits 0 — or exits 1 with "drain incomplete" when
// requests were still in flight at the deadline.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/serve"
)

func main() {
	var ingests []string
	var (
		listen      = flag.String("listen", ":8080", "address to serve the query API on")
		dataset     = flag.String("dataset", "default", "dataset name for -ingest sources")
		system      = flag.String("system", "summit", "system profile for -ingest sources: summit or cori")
		addrFile    = flag.String("addr-file", "", "write the bound listen address to this file once ready")
		maxInFlight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent query bound; excess requests get 429")
		cacheBytes  = flag.Int64("cache-bytes", serve.DefaultCacheBytes, "rendered-report cache size in bytes")
		queryTO     = flag.Duration("query-timeout", serve.DefaultQueryTimeout, "server-side deadline per query; late queries get 503 (<0 disables)")
		drain       = flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
		lakeDir     = flag.String("lake", "", "durable dataset lake directory: commit every ingest, recover datasets on boot")
		compactEach = flag.Int("compact-every", serve.DefaultCompactEvery, "fold a dataset's lake records into one after this many commits (<0 disables)")
	)
	flag.Func("ingest", "ingest this source (dir, .dgar, .dgc, or .darshan; repeatable) before serving", func(v string) error {
		ingests = append(ingests, v)
		return nil
	})
	var fixtures []serve.FixtureSpec
	flag.Func("fixture", "synthesize a deterministic dataset at boot: name:logs[:seed] (repeatable; for load testing)", func(v string) error {
		f, err := serve.ParseFixtureSpec(v)
		if err != nil {
			return err
		}
		fixtures = append(fixtures, f)
		return nil
	})
	var common cli.CommonFlags
	common.Register(flag.CommandLine, cli.FlagDebug|cli.FlagWorkers)
	flag.Parse()

	// The service is always instrumented — metrics are part of the API
	// surface (/metrics), not an opt-in debug aid.
	metrics := obsv.New()
	stopDebug := cli.StartDebug("ioserved", common.DebugAddr, metrics)
	defer stopDebug()

	sys := systems.ByName(*system)
	if sys == nil {
		fmt.Fprintf(os.Stderr, "ioserved: unknown system %q\n", *system)
		os.Exit(2)
	}

	ctx, cancel := cli.SignalContext("ioserved")
	defer cancel()

	// Bind and serve before any recovery or boot ingest: liveness is
	// answerable the moment the process is up, while /readyz holds 503
	// until the datasets are actually queryable.
	store := serve.NewStore()
	var lake *serve.Lake
	if *lakeDir != "" {
		var err error
		lake, err = serve.OpenLake(serve.LakeConfig{
			Dir: *lakeDir, CompactEvery: *compactEach, Metrics: metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioserved: opening lake: %v\n", err)
			os.Exit(1)
		}
		defer lake.Close()
		store = serve.NewStoreAttached(lake)
	}

	server := serve.New(serve.Config{
		Store:         store,
		Metrics:       metrics,
		MaxInFlight:   *maxInFlight,
		CacheBytes:    *cacheBytes,
		QueryTimeout:  *queryTO,
		IngestWorkers: common.Workers,
	})
	server.SetReady(false)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioserved:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 5 * time.Second}
	svc := cli.StartHTTP("ioserved", srv, ln, os.Stderr)

	if lake != nil {
		if err := store.RecoverLake(); err != nil {
			fmt.Fprintf(os.Stderr, "ioserved: recovering lake: %v\n", err)
			os.Exit(1)
		}
		for _, snap := range store.List() {
			fmt.Fprintf(os.Stderr, "ioserved: recovered dataset %q gen %d (%d logs) from %s\n",
				snap.Name, snap.Gen, snap.Report.Summary.Logs, *lakeDir)
		}
	}
	// Fixture datasets first: a deterministic corpus is synthesized into a
	// scratch directory and folded in like any other boot ingest. Replicas
	// booted with the same -fixture spec publish byte-identical datasets —
	// the load-test harness's ground truth.
	for _, fx := range fixtures {
		dir, err := os.MkdirTemp("", "ioserved-fixture-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioserved: fixture scratch dir: %v\n", err)
			os.Exit(1)
		}
		err = serve.WriteFixture(dir, sys, fx.Logs, fx.Seed)
		if err == nil {
			var snap *serve.Snapshot
			var res core.IngestResult
			snap, res, err = store.Ingest(ctx, fx.Name, sys, dir, core.IngestOptions{
				Workers: common.Workers, Metrics: metrics,
			})
			if err == nil {
				fmt.Fprintf(os.Stderr, "ioserved: fixture dataset %q gen %d — %d deterministic logs (seed %d)\n",
					snap.Name, snap.Gen, res.Parsed, fx.Seed)
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioserved: fixture %q: %v\n", fx.Name, err)
			os.Exit(1)
		}
	}
	for _, src := range ingests {
		snap, res, err := store.Ingest(ctx, *dataset, sys, src, core.IngestOptions{
			Workers: common.Workers, Metrics: metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioserved: ingesting %s: %v\n", src, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ioserved: dataset %q gen %d — %d logs parsed (%d unreadable) from %s\n",
			snap.Name, snap.Gen, res.Parsed, res.Failed, src)
	}
	server.SetReady(true)

	// The addr-file is the ready signal scripts wait on: written only once
	// every recovered and boot-ingested dataset is queryable.
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ioserved:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "ioserved: serving on http://%s (%d datasets)\n",
		ln.Addr(), len(store.List()))

	if code := svc.WaitAndDrain(ctx, *drain, func() { server.SetReady(false) }); code != 0 {
		os.Exit(code)
	}
	cli.WriteMetrics("ioserved", common.MetricsOut, metrics)
	fmt.Fprintln(os.Stderr, "ioserved: drained, bye")
}
