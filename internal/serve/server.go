package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/predict"
	"iolayers/internal/report"
)

// DefaultMaxInFlight bounds concurrently-executing query requests when the
// caller does not choose a bound.
const DefaultMaxInFlight = 64

// DefaultQueryTimeout bounds one query handler's execution when the caller
// does not choose: long enough for any honest render, short enough that a
// wedged one cannot hold a concurrency slot for the life of the process.
const DefaultQueryTimeout = 30 * time.Second

// Config configures a Server.
type Config struct {
	// Store holds the datasets; required.
	Store *Store
	// Metrics receives request counters, latency histograms, cache
	// hit/miss counters, and the in-flight gauge. Nil disables
	// instrumentation at zero cost.
	Metrics *obsv.Registry
	// MaxInFlight bounds concurrently-executing query requests; excess
	// requests are rejected immediately with 429 and Retry-After rather
	// than queued (0 means DefaultMaxInFlight).
	MaxInFlight int
	// QueryTimeout bounds each query handler's execution: a request still
	// running at the deadline gets 503 + Retry-After and releases its
	// concurrency slot immediately, so a stuck render can never pin the
	// server's capacity (0 means DefaultQueryTimeout, negative disables).
	QueryTimeout time.Duration
	// CacheBytes bounds the rendered-report LRU (0 means
	// DefaultCacheBytes).
	CacheBytes int64
	// IngestWorkers is the worker-pool size for ingest passes (0 means
	// GOMAXPROCS).
	IngestWorkers int
}

// Server answers report queries over HTTP. Create with New, mount with
// Handler.
//
// Liveness and readiness are distinct surfaces: /healthz answers "the
// process is up" unconditionally, while /readyz answers "route traffic
// here" — false while the caller holds readiness down (SetReady, e.g.
// before the initial lake replay and ingests finish) and while the store
// is inside a maintenance pass such as lake compaction.
type Server struct {
	store         *Store
	cache         *Cache
	sem           chan struct{}
	metrics       *obsv.Registry
	ingestWorkers int
	queryTimeout  time.Duration
	ready         atomic.Bool
	handler       http.Handler
	cacheHits     *obsv.Counter
	cacheMisses   *obsv.Counter

	// testStall, when set by tests, runs inside the deadline-bounded
	// goroutine before the handler (it is handed the request path) — the
	// hook for simulating a wedged render.
	testStall func(endpoint string, r *http.Request)
}

// New builds a Server over cfg.Store. The server starts ready; callers
// that recover state before serving flip readiness with SetReady.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = DefaultMaxInFlight
	}
	timeout := cfg.QueryTimeout
	if timeout == 0 {
		timeout = DefaultQueryTimeout
	}
	s := &Server{
		store:         cfg.Store,
		cache:         NewCache(cfg.CacheBytes),
		sem:           make(chan struct{}, inflight),
		metrics:       cfg.Metrics,
		ingestWorkers: cfg.IngestWorkers,
		queryTimeout:  timeout,
		cacheHits:     cfg.Metrics.Counter("serve.cache.hits"),
		cacheMisses:   cfg.Metrics.Counter("serve.cache.misses"),
	}
	s.ready.Store(true)
	s.handler = httpapi.Mount(httpapi.Table{
		Service:      "ioserved",
		Metrics:      cfg.Metrics,
		MetricPrefix: "serve",
		ValidDataset: ValidDatasetName,
		Ready:        s.handleReady,
		Routes: []httpapi.Route{
			{Name: "index", Path: httpapi.IndexPath, SchemaVersion: httpapi.IndexSchemaVersion},
			{Name: "datasets", Path: "/v1/datasets", SchemaVersion: report.SchemaVersion,
				Admit: s.bounded, Handler: s.handleDatasets},
			{Name: "report", Path: "/v1/report/{dataset}", Params: []string{"format", "section"},
				SchemaVersion: report.SchemaVersion, Admit: s.bounded, Handler: s.handleReport},
			{Name: "compare", Path: "/v1/compare/{a}/{b}", SchemaVersion: report.SchemaVersion,
				Admit: s.bounded, Handler: s.handleCompare},
			{Name: "predict", Path: "/v1/predict/{dataset}", SchemaVersion: predict.SchemaVersion,
				Admit: s.bounded, Handler: s.handlePredict},
			{Name: "ingest", Path: "/v1/ingest", Methods: []string{http.MethodPost},
				SchemaVersion: report.SchemaVersion, Handler: s.handleIngest},
		},
	})
	return s
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// SetReady flips the readiness gate /readyz reports. It does not affect
// query handling — a not-ready server still answers whatever it has —
// only what the server advertises to routers and load balancers.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the server currently advertises readiness:
// the gate is up and the store is not inside a maintenance pass.
func (s *Server) Ready() bool { return s.ready.Load() && !s.store.InMaintenance() }

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case !s.ready.Load():
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "not ready: recovering\n")
	case s.store.InMaintenance():
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "not ready: maintenance\n")
	default:
		io.WriteString(w, "ready\n")
	}
}

// bounded is the query routes' admission: acquire a concurrency slot or
// reject immediately with 429 + Retry-After (load-shedding beats queueing
// for a service whose responses are cheap once cached), track in-flight
// depth, and run what is admitted under the query deadline.
func (s *Server) bounded(fn http.HandlerFunc) http.HandlerFunc {
	timed := s.deadlined(fn)
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.metrics.Counter("serve.throttled").Add(1)
			httpapi.WriteErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverCapacity,
				"server at capacity, retry shortly", time.Second)
			return
		}
		s.metrics.Gauge("serve.inflight").Set(float64(len(s.sem)))
		defer func() {
			<-s.sem
			s.metrics.Gauge("serve.inflight").Set(float64(len(s.sem)))
		}()
		timed(w, r)
	}
}

// deadlined bounds one query handler's execution with the server's query
// timeout. The handler runs in its own goroutine against a buffered
// response; if it beats the deadline the buffer is flushed verbatim, and
// if not the caller gets 503 + Retry-After while the stuck goroutine is
// abandoned to finish against the buffer — crucially *after* the
// concurrency slot is released, so a wedged render costs one goroutine,
// not a semaphore slot forever. The deadline sits outside the route's
// counting (httpapi.Route.Admit), so a query that outlives it enters
// serve.<route>.latency_us when its render finishes, at its true
// duration; serve.query_timeouts counts the 503s.
func (s *Server) deadlined(fn http.HandlerFunc) http.HandlerFunc {
	if s.queryTimeout <= 0 {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		buf := &bufferedResponse{header: http.Header{}, code: http.StatusOK}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if s.testStall != nil {
				s.testStall(r.URL.Path, r)
			}
			fn(buf, r)
		}()
		select {
		case <-done:
			buf.flush(w)
		case <-ctx.Done():
			s.metrics.Counter("serve.query_timeouts").Add(1)
			httpapi.WriteErrorRetry(w, http.StatusServiceUnavailable, httpapi.CodeTimeout,
				fmt.Sprintf("query exceeded the %v server-side deadline", s.queryTimeout), time.Second)
		}
	}
}

// bufferedResponse is the in-memory ResponseWriter a deadlined handler
// renders into, so a timed-out handler can never race the real connection.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) { b.code = code }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes())
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	resp := DatasetsDoc{SchemaVersion: report.SchemaVersion, Datasets: []DatasetRow{}}
	for _, snap := range s.store.List() {
		resp.Datasets = append(resp.Datasets, RowOf(snap))
	}
	httpapi.WriteDoc(w, resp)
}

func contentTypeFor(f report.Format) string {
	switch f {
	case report.FormatJSON:
		return "application/json"
	case report.FormatCSV:
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// snapshot loads a dataset's current generation, or answers 404.
func (s *Server) snapshot(w http.ResponseWriter, name string) (*Snapshot, bool) {
	snap, ok := s.store.Get(name)
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, fmt.Sprintf("no dataset %q", name))
	}
	return snap, ok
}

// cached answers key from the render cache, or renders, stores and
// answers — the one X-Cache path report, predict and compare share. A
// render error is returned with nothing written: only the caller knows
// whether it is the client's parameters or a bug.
func (s *Server) cached(w http.ResponseWriter, key, ctype string, render func() ([]byte, error)) error {
	xcache := "hit"
	body, hitType, ok := s.cache.Get(key)
	if ok {
		s.cacheHits.Add(1)
		ctype = hitType
	} else {
		s.cacheMisses.Add(1)
		var err error
		if body, err = render(); err != nil {
			return err
		}
		s.cache.Put(key, ctype, body)
		xcache = "miss"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("X-Cache", xcache)
	w.Write(body)
	return nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	format, err := report.ParseFormat(r.FormValue("format"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadParam, err.Error())
		return
	}
	section := report.CanonicalSection(r.FormValue("section"))
	snap, ok := s.snapshot(w, r.PathValue("dataset"))
	if !ok {
		return
	}
	w.Header().Set("X-Dataset-Generation", fmt.Sprint(snap.Gen))
	key := fmt.Sprintf("report|%s|%d|%s|%s", snap.Name, snap.Gen, section, format)
	err = s.cached(w, key, contentTypeFor(format), func() ([]byte, error) {
		body, err := report.RenderString(snap.Report, report.Options{Format: format, Section: section})
		return []byte(body), err
	})
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadParam, err.Error())
	}
}

// handlePredict serves the predictive-analytics document for one dataset:
// the burst model and forecast mined from the frozen aggregate state, the
// per-app placement hints, and — when the dataset's system has a
// simulation model — the closed-loop replay of those hints. The document
// is a pure function of (dataset, generation), so it caches under the
// generation key exactly like reports and is byte-identical from any
// replica at any ingest worker count.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r.PathValue("dataset"))
	if !ok {
		return
	}
	w.Header().Set("X-Dataset-Generation", fmt.Sprint(snap.Gen))
	key := fmt.Sprintf("predict|%s|%d", snap.Name, snap.Gen)
	err := s.cached(w, key, "application/json", func() ([]byte, error) {
		p := predict.FromReport(snap.Report)
		if sys := systems.ByName(snap.System); sys != nil {
			p = p.WithReplay(sys, snap.Report)
		}
		return MarshalDoc(predict.NewDocument(snap.Name, snap.Gen, p))
	})
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
	}
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	snapA, ok := s.snapshot(w, r.PathValue("a"))
	if !ok {
		return
	}
	snapB, ok := s.snapshot(w, r.PathValue("b"))
	if !ok {
		return
	}
	key := fmt.Sprintf("compare|%s|%d|%s|%d", snapA.Name, snapA.Gen, snapB.Name, snapB.Gen)
	err := s.cached(w, key, "application/json", func() ([]byte, error) {
		return CompareDocument(RowOf(snapA), RowOf(snapB))
	})
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
	}
}

// ingestRequest is the POST /v1/ingest body.
type ingestRequest struct {
	// Dataset names the dataset to create or extend.
	Dataset string `json:"dataset"`
	// System is the system profile ("summit" or "cori"); required when
	// the dataset does not exist yet, must match when it does.
	System string `json:"system"`
	// Source is a directory of .darshan logs, a .dgar archive, a .dgc
	// columnar campaign, or a single .darshan file on the server's
	// filesystem; core.Open tells them apart by header, not by name.
	Source string `json:"source"`
}

type ingestResponse struct {
	SchemaVersion int        `json:"schema_version"`
	Dataset       string     `json:"dataset"`
	System        string     `json:"system"`
	Generation    uint64     `json:"generation"`
	Parsed        int        `json:"parsed"`
	Failed        int        `json:"failed"`
	Summary       SummaryDoc `json:"summary"`
}

// maxIngestBody bounds the ingest request document.
const maxIngestBody = 1 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, fmt.Sprintf("bad ingest request: %v", err))
		return
	}
	if !ValidDatasetName(req.Dataset) {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, fmt.Sprintf("invalid dataset name %q", req.Dataset))
		return
	}
	if req.Source == "" {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "source is required")
		return
	}
	systemName := req.System
	if cur, ok := s.store.Get(req.Dataset); ok && systemName == "" {
		systemName = cur.System
	}
	sys := systems.ByName(systemName)
	if sys == nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, fmt.Sprintf("unknown system %q", systemName))
		return
	}

	snap, res, err := s.store.Ingest(r.Context(), req.Dataset, sys, req.Source, core.IngestOptions{
		Workers: s.ingestWorkers,
		Metrics: s.metrics,
	})
	if err != nil {
		s.metrics.Counter("serve.ingest.errors").Add(1)
		httpapi.WriteError(w, http.StatusUnprocessableEntity, httpapi.CodeIngestFailed, err.Error())
		return
	}
	s.metrics.Counter("serve.ingest.published").Add(1)
	httpapi.WriteDoc(w, ingestResponse{
		SchemaVersion: report.SchemaVersion,
		Dataset:       snap.Name,
		System:        snap.System,
		Generation:    snap.Gen,
		Parsed:        res.Parsed,
		Failed:        res.Failed,
		Summary:       summaryOf(snap),
	})
}
