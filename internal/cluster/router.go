package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iolayers/internal/httpapi"
	"iolayers/internal/obsv"
	"iolayers/internal/predict"
	"iolayers/internal/report"
	"iolayers/internal/serve"
)

// Router defaults.
const (
	// DefaultReplication is the replication factor: every dataset lives
	// on (and is queryable from) this many replicas.
	DefaultReplication = 2
	// DefaultAttemptTimeout bounds one query attempt against one backend;
	// a stalled replica costs this long, then the router fails over.
	DefaultAttemptTimeout = 10 * time.Second
	// DefaultIngestTimeout bounds one ingest attempt — folding a year of
	// logs is legitimately slow.
	DefaultIngestTimeout = 5 * time.Minute
	// DefaultFailoverBackoff is the base jittered pause before trying the
	// next owner, giving a blipping replica one beat to come back before
	// the cluster piles onto its siblings.
	DefaultFailoverBackoff = 25 * time.Millisecond
	// maxRelayBody caps how much of an upstream response the router will
	// buffer for relay.
	maxRelayBody = 64 << 20
)

// Config configures a Router.
type Config struct {
	// Replicas lists the ioserved backends as URLs or host:port strings.
	// Required, at least one.
	Replicas []string
	// Replication is how many replicas own each dataset (0 means
	// DefaultReplication; clamped to the replica count).
	Replication int
	// VirtualNodes per replica on the hash ring (0 means
	// DefaultVirtualNodes).
	VirtualNodes int
	// MaxInFlightPerBackend bounds concurrent requests held open against
	// one replica (0 means DefaultMaxInFlightPerBackend); a saturated
	// backend is skipped in favor of the next owner.
	MaxInFlightPerBackend int
	// AttemptTimeout bounds one query attempt against one backend
	// (0 means DefaultAttemptTimeout).
	AttemptTimeout time.Duration
	// IngestTimeout bounds one ingest attempt (0 means
	// DefaultIngestTimeout).
	IngestTimeout time.Duration
	// FailoverBackoff is the base for the jittered pause between owner
	// attempts (0 means DefaultFailoverBackoff, negative disables).
	FailoverBackoff time.Duration
	// Breaker configures each backend's circuit breaker.
	Breaker BreakerConfig
	// ProbeInterval and ProbeTimeout drive the active health prober
	// (zeros mean defaults).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Keyring, when non-empty, turns on the auth edge: every /v1 request
	// must carry a registered API key (X-API-Key or Authorization:
	// Bearer) with tokens left in its tenant bucket.
	Keyring *Keyring
	// Metrics receives router counters and latency histograms. Nil
	// disables instrumentation.
	Metrics *obsv.Registry
	// Transport overrides the upstream HTTP transport, for queries,
	// ingests and health probes alike (tests).
	Transport http.RoundTripper
	// Jitter returns a uniform [0, 1) that spreads the failover backoff
	// and every breaker's open interval (nil means math/rand/v2).
	Jitter func() float64
	// Clock is the time the breakers, the prober's cadence and the
	// failover backoff read (nil means the wall clock).
	Clock Clock
}

// Router is the cluster's front door: it owns the ring, the backends,
// the breakers, and the prober, and exposes the same /v1 API a single
// ioserved does — byte-identical bodies, sourced from whichever owner of
// each dataset is answering.
type Router struct {
	backends []*Backend
	ring     *Ring
	rf       int

	client      *http.Client
	attemptTO   time.Duration
	ingestTO    time.Duration
	backoffBase time.Duration
	jitter      func() float64
	clock       Clock
	keyring     *Keyring
	prober      *prober
	handler     http.Handler
	startOnce   sync.Once
	closeOnce   sync.Once
	started     bool

	// resolved counters (nil-safe when metrics are off)
	cFailover    *obsv.Counter
	cExhausted   *obsv.Counter
	cSkipDark    *obsv.Counter
	cSkipBreaker *obsv.Counter
	cSkipFull    *obsv.Counter
	cLimited     *obsv.Counter
	cUnauthed    *obsv.Counter
}

// NewRouter builds a router over cfg.Replicas. Call Start to begin
// health probes and Close to stop them.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	rf := cfg.Replication
	if rf <= 0 {
		rf = DefaultReplication
	}
	if rf > len(cfg.Replicas) {
		rf = len(cfg.Replicas)
	}
	jitter := cfg.Jitter
	if jitter == nil {
		jitter = rand.Float64
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallClock{}
	}
	backends := make([]*Backend, 0, len(cfg.Replicas))
	names := make([]string, 0, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		be, err := newBackend(raw, newBreaker(cfg.Breaker, clock, jitter), cfg.MaxInFlightPerBackend)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %q: %w", raw, err)
		}
		backends = append(backends, be)
		names = append(names, be.Name)
	}
	ring, err := NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	attemptTO := cfg.AttemptTimeout
	if attemptTO <= 0 {
		attemptTO = DefaultAttemptTimeout
	}
	ingestTO := cfg.IngestTimeout
	if ingestTO <= 0 {
		ingestTO = DefaultIngestTimeout
	}
	backoff := cfg.FailoverBackoff
	if backoff == 0 {
		backoff = DefaultFailoverBackoff
	}
	keyring := cfg.Keyring
	if keyring != nil && keyring.Len() == 0 {
		keyring = nil
	}
	r := &Router{
		backends:     backends,
		ring:         ring,
		rf:           rf,
		client:       &http.Client{Transport: cfg.Transport},
		attemptTO:    attemptTO,
		ingestTO:     ingestTO,
		backoffBase:  backoff,
		jitter:       jitter,
		clock:        clock,
		keyring:      keyring,
		cFailover:    cfg.Metrics.Counter("cluster.failovers"),
		cExhausted:   cfg.Metrics.Counter("cluster.owners_exhausted"),
		cSkipDark:    cfg.Metrics.Counter("cluster.skip.unhealthy"),
		cSkipBreaker: cfg.Metrics.Counter("cluster.skip.breaker_open"),
		cSkipFull:    cfg.Metrics.Counter("cluster.skip.saturated"),
		cLimited:     cfg.Metrics.Counter("cluster.ratelimited"),
		cUnauthed:    cfg.Metrics.Counter("cluster.unauthorized"),
	}
	r.prober = newProber(backends, r.client, clock, cfg.ProbeTimeout, cfg.ProbeInterval, probeMetrics{
		ok:   cfg.Metrics.Counter("cluster.probe.ok"),
		fail: cfg.Metrics.Counter("cluster.probe.fail"),
	})

	routes := []httpapi.Route{
		{Name: "index", Path: httpapi.IndexPath, SchemaVersion: httpapi.IndexSchemaVersion},
		{Name: "cluster", Path: "/v1/cluster", Params: []string{"dataset"},
			SchemaVersion: report.SchemaVersion, Handler: r.handleCluster},
		{Name: "datasets", Path: "/v1/datasets", SchemaVersion: report.SchemaVersion, Handler: r.handleDatasets},
		{Name: "sources", Path: "/v1/datasets/{dataset}/sources", SchemaVersion: report.SchemaVersion, Handler: r.handleRelay},
		{Name: "report", Path: "/v1/report/{dataset}", Params: []string{"format", "section"},
			SchemaVersion: report.SchemaVersion, Handler: r.handleRelay},
		{Name: "compare", Path: "/v1/compare/{a}/{b}", SchemaVersion: report.SchemaVersion, Handler: r.handleCompare},
		{Name: "predict", Path: "/v1/predict/{dataset}", SchemaVersion: predict.SchemaVersion, Handler: r.handleRelay},
		{Name: "ingest", Path: "/v1/ingest", Methods: []string{http.MethodPost},
			SchemaVersion: report.SchemaVersion, Handler: r.handleIngest},
	}
	for i := range routes {
		routes[i].Admit = r.authed // the whole API sits behind the key edge; probes and metrics stay open
	}
	r.handler = httpapi.Mount(httpapi.Table{
		Service:      "iorouter",
		Metrics:      cfg.Metrics,
		MetricPrefix: "cluster",
		ValidDataset: serve.ValidDatasetName,
		Ready:        r.handleReady,
		Routes:       routes,
	})
	return r, nil
}

// Handler returns the router's root handler.
func (r *Router) Handler() http.Handler { return r.handler }

// Start launches the active health prober.
func (r *Router) Start() {
	r.startOnce.Do(func() {
		r.started = true
		go r.prober.run()
	})
}

// Close stops the prober (if Start ran) and returns once its probes in
// flight have finished.
func (r *Router) Close() {
	r.startOnce.Do(func() {}) // neutralize a Start issued after Close
	r.closeOnce.Do(func() {
		if r.started {
			r.prober.close()
		}
	})
}

// Owners returns the backends owning a dataset, primary first.
func (r *Router) Owners(dataset string) []*Backend {
	idxs := r.ring.Owners(dataset, r.rf)
	owners := make([]*Backend, len(idxs))
	for i, idx := range idxs {
		owners[i] = r.backends[idx]
	}
	return owners
}

// handleReady: the router is ready when at least one replica is.
func (r *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	healthy := 0
	for _, be := range r.backends {
		if be.Healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "not ready: no healthy replicas\n")
		return
	}
	io.WriteString(w, fmt.Sprintf("ready (%d/%d replicas healthy)\n", healthy, len(r.backends)))
}

// authed enforces the API-key + token-bucket edge when a keyring is
// configured; with no keyring the cluster is open, like a bare ioserved.
func (r *Router) authed(fn http.HandlerFunc) http.HandlerFunc {
	if r.keyring == nil {
		return fn
	}
	return func(w http.ResponseWriter, req *http.Request) {
		key := req.Header.Get("X-API-Key")
		if key == "" {
			if auth := req.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
				key = auth[7:]
			}
		}
		if key == "" {
			r.cUnauthed.Add(1)
			httpapi.WriteError(w, http.StatusUnauthorized, httpapi.CodeUnauthorized,
				"missing API key (X-API-Key or Authorization: Bearer)")
			return
		}
		tenant, wait, err := r.keyring.Check(key)
		if err != nil {
			r.cUnauthed.Add(1)
			httpapi.WriteError(w, http.StatusUnauthorized, httpapi.CodeUnauthorized, "unknown API key")
			return
		}
		if wait > 0 {
			r.cLimited.Add(1)
			httpapi.WriteErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeRateLimited,
				fmt.Sprintf("tenant %q over its request rate, retry shortly", tenant), wait)
			return
		}
		fn(w, req)
	}
}

// upstream is one backend's buffered answer.
type upstream struct {
	backend string
	status  int
	header  http.Header
	body    []byte
}

// retryAfterOf reads an upstream Retry-After (whole seconds only).
func (u *upstream) retryAfterOf() int {
	if u == nil {
		return 0
	}
	n, err := strconv.Atoi(u.header.Get("Retry-After"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// attemptError explains why one backend did not produce a relayable
// answer and whether a request was actually sent (gated attempts cost the
// backend nothing and feed no accounting).
type attemptError struct {
	gated      bool
	busy       bool // upstream 429
	retryAfter int
	err        error
}

func (e *attemptError) Error() string { return e.err.Error() }

var (
	errDark      = errors.New("replica marked unhealthy")
	errBreaker   = errors.New("circuit breaker open")
	errSaturated = errors.New("replica at in-flight capacity")
)

// attempt sends one request to one backend and classifies the outcome.
// A nil error means the answer is definitive and should be relayed (2xx
// and deterministic 4xx alike); an *attemptError means fail over. Every
// sent request feeds the backend's breaker and health bit — except one
// that failed because the caller's own ctx was done, which is no verdict
// on the replica.
func (r *Router) attempt(ctx context.Context, be *Backend, method, pathQ string, body []byte, timeout time.Duration) (*upstream, *attemptError) {
	if !be.Healthy() {
		r.cSkipDark.Add(1)
		return nil, &attemptError{gated: true, err: errDark}
	}
	// Slot before breaker: a true Allow from an open breaker claims its
	// single trial, so the claim must only happen once we know the
	// request can actually be sent.
	if !be.acquire() {
		r.cSkipFull.Add(1)
		return nil, &attemptError{gated: true, err: errSaturated}
	}
	if !be.breaker.Allow() {
		be.release()
		r.cSkipBreaker.Add(1)
		return nil, &attemptError{gated: true, err: errBreaker}
	}
	defer be.release()

	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, be.URL(pathQ), rd)
	if err != nil {
		return nil, &attemptError{gated: true, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	var data []byte
	if err == nil {
		defer resp.Body.Close()
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBody+1))
		if err == nil && len(data) > maxRelayBody {
			err = fmt.Errorf("response exceeds %d bytes", int64(maxRelayBody))
		}
		if err != nil {
			err = fmt.Errorf("reading response: %w", err)
		}
	}
	if err != nil {
		class := outcomeNetErr
		if ctx.Err() != nil {
			// ctx is the caller's (an attempt-timeout expiry is actx's alone):
			// they hung up, which says nothing about the replica.
			class = outcomeAbandoned
		}
		be.reportOutcome(class)
		return nil, &attemptError{err: fmt.Errorf("replica %s: %w", be.Name, err)}
	}
	up := &upstream{backend: be.Name, status: resp.StatusCode, header: resp.Header, body: data}
	switch classifyStatus(resp.StatusCode) {
	case outcomeBusy:
		be.reportOutcome(outcomeBusy)
		return nil, &attemptError{busy: true, retryAfter: up.retryAfterOf(),
			err: fmt.Errorf("replica %s: at capacity", be.Name)}
	case outcomeServerErr:
		be.reportOutcome(outcomeServerErr)
		return nil, &attemptError{retryAfter: up.retryAfterOf(),
			err: fmt.Errorf("replica %s: %s", be.Name, resp.Status)}
	default:
		be.reportOutcome(outcomeOK)
		return up, nil
	}
}

// backoffBeforeRetry pauses a jittered interval scaled by the attempt
// number before the next owner is tried, honoring cancellation.
func (r *Router) backoffBeforeRetry(ctx context.Context, attempt int) {
	if r.backoffBase <= 0 {
		return
	}
	d := time.Duration(float64(r.backoffBase) * float64(attempt) * (0.5 + r.jitter()))
	select {
	case <-r.clock.After(d):
	case <-ctx.Done():
	}
}

// relay writes an upstream answer through, preserving the byte-identical
// body and the headers that matter, and stamping which replica answered.
func relay(w http.ResponseWriter, up *upstream, attempts int) {
	for _, h := range []string{"Content-Type", "X-Cache", "X-Dataset-Generation", "Retry-After"} {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Io-Backend", up.backend)
	w.Header().Set("X-Io-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(up.status)
	w.Write(up.body)
}

// walkEnd is how an any-of owner walk ended.
type walkEnd int

const (
	// answered: an owner's answer passed accept.
	answered walkEnd = iota
	// missing: owners answered, none acceptably — the dataset is not there.
	missing
	// exhausted: no owner answered; walk already wrote the failure envelope.
	exhausted
)

// walkResult carries the answer that ended the walk — the accepted one
// when answered, the last refused one when missing — and the attempt
// count relay stamps on it.
type walkResult struct {
	end      walkEnd
	up       *upstream
	attempts int
}

// walk is the router's one any-of failover policy: try a dataset's owners
// in ring order, pausing a jittered backoff between them, until one gives
// an answer accept takes. An answer accept refuses (a 404, a listing
// without the row) is deferred rather than final: an owner that lost its
// copy (restarted without its lake) must not mask a sibling that still
// has the dataset. Exhausting every owner synthesizes 503 — or 429 when
// every answering owner was shedding load — with a Retry-After honoring
// the largest upstream hint. The walk stops the moment the caller's
// context is done.
func (r *Router) walk(w http.ResponseWriter, req *http.Request, dataset, pathQ string, accept func(*upstream) bool) walkResult {
	ctx := req.Context()
	owners := r.Owners(dataset)
	var refused *upstream
	sawAnswer, allBusy := false, true
	retryAfter := 1
	for i, be := range owners {
		if i > 0 {
			r.backoffBeforeRetry(ctx, i)
		}
		up, aerr := r.attempt(ctx, be, http.MethodGet, pathQ, nil, r.attemptTO)
		if aerr == nil {
			if !accept(up) {
				refused = up
				continue
			}
			if i > 0 {
				r.cFailover.Add(1)
			}
			return walkResult{answered, up, i + 1}
		}
		if ctx.Err() != nil {
			// Nobody is left to answer, and a walk cut short is not an
			// exhausted one: the remaining owners were never asked.
			httpapi.WriteErrorRetry(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable,
				"request cancelled before an owner answered", time.Second)
			return walkResult{end: exhausted}
		}
		if !aerr.gated {
			sawAnswer = true
			if !aerr.busy {
				allBusy = false
			}
			if aerr.retryAfter > retryAfter {
				retryAfter = aerr.retryAfter
			}
		}
	}
	if refused != nil {
		return walkResult{missing, refused, len(owners)}
	}
	r.cExhausted.Add(1)
	status, code := http.StatusServiceUnavailable, httpapi.CodeUnavailable
	if sawAnswer && allBusy {
		status, code = http.StatusTooManyRequests, httpapi.CodeOverCapacity
	}
	httpapi.WriteErrorRetry(w, status, code,
		fmt.Sprintf("all %d owners of dataset %q are unavailable, retry shortly", len(owners), dataset),
		time.Duration(retryAfter)*time.Second)
	return walkResult{end: exhausted}
}

// handleRelay answers /v1/report, /v1/predict and a dataset's
// /v1/datasets/{dataset}/sources alike: the request's own
// path and query go to whichever owner of the dataset answers, and that
// answer comes back byte for byte. A parameter value only the replica can
// judge (?format=yaml) is thus rejected in the replica's own envelope, and
// a unanimous 404 is the last owner's 404 — the router never rewrites
// upstream bodies.
func (r *Router) handleRelay(w http.ResponseWriter, req *http.Request) {
	res := r.walk(w, req, req.PathValue("dataset"), req.URL.RequestURI(),
		func(up *upstream) bool { return up.status != http.StatusNotFound })
	if res.end != exhausted {
		relay(w, res.up, res.attempts)
	}
}

// handleCompare scatter/gathers: each side's summary comes from the shard
// owning that dataset — the same walk, asking each owner for the dataset
// compared with itself and accepting the first answer whose side a is the
// row — and the comparison document is assembled by the same serve code a
// single node renders with: byte-identical output even when a and b live
// on disjoint replicas. The self-compare is the smallest document that
// carries a row's summary, and the owner renders it once per generation.
func (r *Router) handleCompare(w http.ResponseWriter, req *http.Request) {
	var rows [2]serve.DatasetRow
	for i, name := range []string{req.PathValue("a"), req.PathValue("b")} {
		esc := url.PathEscape(name)
		res := r.walk(w, req, name, "/v1/compare/"+esc+"/"+esc, func(up *upstream) bool {
			var doc serve.CompareDoc
			if up.status != http.StatusOK || json.Unmarshal(up.body, &doc) != nil || doc.A.Name != name {
				return false
			}
			rows[i] = serve.DatasetRow{Name: doc.A.Name, System: doc.A.System,
				Generation: doc.A.Generation, Summary: doc.A.Summary}
			return true
		})
		switch res.end {
		case missing:
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, fmt.Sprintf("no dataset %q", name))
			return
		case exhausted:
			return
		}
	}
	httpapi.WriteDoc(w, serve.Compare(rows[0], rows[1]))
}

// handleDatasets scatters to every backend and gathers the union of
// their listings, keeping each dataset's highest generation.
func (r *Router) handleDatasets(w http.ResponseWriter, req *http.Request) {
	type result struct {
		doc serve.DatasetsDoc
		ok  bool
	}
	results := make([]result, len(r.backends))
	var wg sync.WaitGroup
	for i, be := range r.backends {
		wg.Add(1)
		go func(i int, be *Backend) {
			defer wg.Done()
			up, aerr := r.attempt(req.Context(), be, http.MethodGet, "/v1/datasets", nil, r.attemptTO)
			if aerr != nil || up.status != http.StatusOK {
				return
			}
			if json.Unmarshal(up.body, &results[i].doc) == nil {
				results[i].ok = true
			}
		}(i, be)
	}
	wg.Wait()
	rows := map[string]serve.DatasetRow{}
	answered := 0
	for _, res := range results {
		if !res.ok {
			continue
		}
		answered++
		for _, row := range res.doc.Datasets {
			if cur, ok := rows[row.Name]; !ok || row.Generation > cur.Generation {
				rows[row.Name] = row
			}
		}
	}
	if answered == 0 {
		httpapi.WriteErrorRetry(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable,
			"no replicas are answering, retry shortly", time.Second)
		return
	}
	doc := serve.DatasetsDoc{SchemaVersion: report.SchemaVersion, Datasets: []serve.DatasetRow{}}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc.Datasets = append(doc.Datasets, rows[name])
	}
	httpapi.WriteDoc(w, doc)
}

// ingestReplicaResult is one owner's slice of a fanned-out ingest.
type ingestReplicaResult struct {
	Replica    string `json:"replica"`
	Generation uint64 `json:"generation"`
	Parsed     int    `json:"parsed"`
	Failed     int    `json:"failed"`
}

// ingestFanoutDoc is the router's POST /v1/ingest response.
type ingestFanoutDoc struct {
	SchemaVersion int                   `json:"schema_version"`
	Dataset       string                `json:"dataset"`
	Replicas      []ingestReplicaResult `json:"replicas"`
}

// handleIngest fans one ingest out to every owner of the dataset, in
// owner order, so a dataset is queryable through any of its rf replicas.
// The body is checked by the replicas' own serve.ReadIngestRequest, so a
// body they would refuse is refused here with their 400 and no owner is
// touched. All owners must accept: a deterministic rejection (4xx) from
// the first owner is relayed as-is before any sibling is touched, while
// a failure partway through reports 502 naming the owners that landed
// (see refolds).
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	head, body, ok := serve.ReadIngestRequest(w, req)
	if !ok {
		return
	}
	owners := r.Owners(head.Dataset)
	doc := ingestFanoutDoc{SchemaVersion: report.SchemaVersion, Dataset: head.Dataset}
	for _, be := range owners {
		up, aerr := r.attempt(req.Context(), be, http.MethodPost, "/v1/ingest", body, r.ingestTO)
		if aerr != nil {
			httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstreamFailed, fmt.Sprintf(
				"ingest into %s failed after %d of %d owners landed: %v%s",
				be.Name, len(doc.Replicas), len(owners), aerr.err, refolds(doc.Replicas)))
			return
		}
		if up.status != http.StatusOK {
			if len(doc.Replicas) == 0 {
				relay(w, up, 1) // deterministic rejection, nothing landed
				return
			}
			httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstreamFailed, fmt.Sprintf(
				"replica %s rejected the ingest (%d) after %d of %d owners landed: %s%s",
				be.Name, up.status, len(doc.Replicas), len(owners), bytes.TrimSpace(up.body), refolds(doc.Replicas)))
			return
		}
		var res struct {
			Generation uint64 `json:"generation"`
			Parsed     int    `json:"parsed"`
			Failed     int    `json:"failed"`
		}
		if err := json.Unmarshal(up.body, &res); err != nil {
			httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstreamFailed,
				fmt.Sprintf("replica %s: undecodable ingest response", be.Name))
			return
		}
		doc.Replicas = append(doc.Replicas, ingestReplicaResult{
			Replica: be.Name, Generation: res.Generation, Parsed: res.Parsed, Failed: res.Failed,
		})
	}
	httpapi.WriteDoc(w, doc)
}

// refolds ends a partial fan-out's 502. The owners that landed are a
// generation ahead, and replica ingest adds to a dataset, so a retry
// folds the source into them a second time; it does not converge.
func refolds(landed []ingestReplicaResult) string {
	if len(landed) == 0 {
		return ""
	}
	names := make([]string, len(landed))
	for i, res := range landed {
		names[i] = res.Replica
	}
	return "; landed on " + strings.Join(names, ", ") + ", and a retry folds the source into those owners again"
}

// clusterReplicaDoc is one replica's row in the /v1/cluster status view.
type clusterReplicaDoc struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
}

// clusterDoc is the /v1/cluster response: the router's live view of its
// replicas, plus — with ?dataset= — the owner list for one dataset.
type clusterDoc struct {
	SchemaVersion int                 `json:"schema_version"`
	Replication   int                 `json:"replication"`
	Replicas      []clusterReplicaDoc `json:"replicas"`
	Dataset       string              `json:"dataset,omitempty"`
	Owners        []string            `json:"owners,omitempty"`
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	doc := clusterDoc{SchemaVersion: report.SchemaVersion, Replication: r.rf}
	for _, be := range r.backends {
		doc.Replicas = append(doc.Replicas, clusterReplicaDoc{
			Name: be.Name, Healthy: be.Healthy(), Breaker: be.BreakerState().String(),
		})
	}
	if ds := req.FormValue("dataset"); ds != "" {
		if !serve.ValidDatasetName(ds) {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, fmt.Sprintf("invalid dataset name %q", ds))
			return
		}
		doc.Dataset = ds
		for _, be := range r.Owners(ds) {
			doc.Owners = append(doc.Owners, be.Name)
		}
	}
	httpapi.WriteDoc(w, doc)
}
