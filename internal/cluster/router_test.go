package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iolayers/internal/httpapi"
	"iolayers/internal/obsv"
	"iolayers/internal/serve"
)

// fakeReplica is a scriptable stand-in for one ioserved: a mode switch
// picks how it answers, and every body is distinct per replica so relay
// byte-identity is checkable.
type fakeReplica struct {
	ts   *httptest.Server
	name string // host:port
	// mode: "ok", "error" (500), "busy" (429 + Retry-After), "notfound",
	// "down" (connection refused)
	mode  atomic.Value
	stall chan struct{} // non-nil: /v1/report blocks on it in ok mode
	hits  atomic.Int64
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.mode.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/report/{dataset}", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		switch f.mode.Load().(string) {
		case "error":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "busy":
			w.Header().Set("Retry-After", "7")
			http.Error(w, "shedding", http.StatusTooManyRequests)
		case "notfound":
			http.Error(w, "no dataset", http.StatusNotFound)
		default:
			if f.stall != nil {
				select {
				case <-f.stall:
				case <-r.Context().Done():
					return
				}
			}
			fmt.Fprintf(w, "report %s from %s", r.PathValue("dataset"), f.name)
		}
	})
	mux.HandleFunc("GET /v1/predict/{dataset}", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		switch f.mode.Load().(string) {
		case "error":
			httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, "boom")
		case "busy":
			httpapi.WriteErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverCapacity, "shedding", 7*time.Second)
		case "notfound":
			httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound,
				fmt.Sprintf("no dataset %q", r.PathValue("dataset")))
		default:
			fmt.Fprintf(w, "predict %s from %s", r.PathValue("dataset"), f.name)
		}
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, _ *http.Request) {
		if f.mode.Load().(string) == "busy" {
			httpapi.WriteErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeOverCapacity, "shedding", 7*time.Second)
			return
		}
		doc := serve.DatasetsDoc{SchemaVersion: 1, Datasets: []serve.DatasetRow{
			{Name: "alpha", System: "summit", Generation: 3,
				Summary: serve.SummaryDoc{System: "summit", Logs: 10, Jobs: 5, Files: 100, NodeHours: 7}},
			{Name: "beta", System: "cori", Generation: 1,
				Summary: serve.SummaryDoc{System: "cori", Logs: 4, Jobs: 2, Files: 40, NodeHours: 3}},
		}}
		data, _ := serve.MarshalDoc(doc)
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		if f.mode.Load().(string) == "error" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, `{"schema_version":1,"dataset":"x","generation":2,"parsed":3,"failed":0}`)
	})
	f.ts = httptest.NewServer(mux)
	u, _ := url.Parse(f.ts.URL)
	f.name = u.Host
	t.Cleanup(f.ts.Close)
	return f
}

// testCluster builds a router over n fake replicas with failover-friendly
// timings. The prober is NOT started: health stays at its optimistic
// initial true, so tests exercise the passive path deterministically.
func testCluster(t *testing.T, n int, cfg Config) (*Router, []*fakeReplica) {
	t.Helper()
	reps := make([]*fakeReplica, n)
	for i := range reps {
		reps[i] = newFakeReplica(t)
		cfg.Replicas = append(cfg.Replicas, reps[i].ts.URL)
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.FailoverBackoff == 0 {
		cfg.FailoverBackoff = -1 // no sleeping in tests
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, reps
}

func replicaByName(reps []*fakeReplica, name string) *fakeReplica {
	for _, f := range reps {
		if f.name == name {
			return f
		}
	}
	return nil
}

func routerGet(t *testing.T, r *Router, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	resp := rec.Result()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// The satellite failover test: with replication 2, a dataset stays
// queryable when one of its two owners is down — and the relayed body is
// byte-identical to what the surviving owner serves.
func TestFailoverWithOneOwnerDown(t *testing.T) {
	r, reps := testCluster(t, 3, Config{Replication: 2})
	owners := r.Owners("alpha")
	if len(owners) != 2 {
		t.Fatalf("%d owners, want 2", len(owners))
	}
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)

	// Healthy primary answers.
	resp, body := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusOK || body != "report alpha from "+primary.name {
		t.Fatalf("healthy path: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Io-Backend") != primary.name {
		t.Errorf("X-Io-Backend = %q, want primary %s", resp.Header.Get("X-Io-Backend"), primary.name)
	}

	// Kill the primary: connection refused → passive netErr → failover.
	primary.ts.Close()
	for i := 0; i < 5; i++ {
		resp, body = routerGet(t, r, "/v1/report/alpha", nil)
		if resp.StatusCode != http.StatusOK || body != "report alpha from "+secondary.name {
			t.Fatalf("failover request %d: %d %q", i, resp.StatusCode, body)
		}
	}
	if resp.Header.Get("X-Io-Backend") != secondary.name {
		t.Errorf("failover X-Io-Backend = %q, want %s", resp.Header.Get("X-Io-Backend"), secondary.name)
	}
	// The first refusal benched the primary (passive netErr → unhealthy):
	// later requests skip it without dialing, leaving recovery to the
	// prober's trial probes.
	if owners[0].Healthy() {
		t.Error("dead primary still marked healthy after a connection refusal")
	}
}

// 5xx from the primary fails over too, and the primary's hit count shows
// the request actually reached it before the router moved on.
func TestFailoverOn5xx(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})
	owners := r.Owners("alpha")
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)
	primary.mode.Store("error")
	resp, body := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusOK || body != "report alpha from "+secondary.name {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
	if primary.hits.Load() == 0 {
		t.Error("primary was never tried")
	}
	if resp.Header.Get("X-Io-Attempts") != "2" {
		t.Errorf("X-Io-Attempts = %q, want 2", resp.Header.Get("X-Io-Attempts"))
	}
}

// All owners down → 503 with a Retry-After; all owners shedding (429) →
// 429, honoring the largest upstream Retry-After.
func TestOwnersExhausted(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})
	for _, f := range reps {
		f.mode.Store("error")
	}
	resp, _ := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-5xx status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	for _, f := range reps {
		f.mode.Store("busy")
	}
	resp, _ = routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-429 status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Errorf("Retry-After = %q, want the upstream's 7", resp.Header.Get("Retry-After"))
	}
}

// A 404 from the first owner must not mask a sibling that has the
// dataset; only when every owner says 404 is 404 relayed.
func TestNotFoundDefersToSiblings(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})
	owners := r.Owners("alpha")
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)

	primary.mode.Store("notfound")
	resp, body := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusOK || body != "report alpha from "+secondary.name {
		t.Fatalf("sibling with the dataset masked: %d %q", resp.StatusCode, body)
	}

	secondary.mode.Store("notfound")
	resp, _ = routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unanimous 404 relayed as %d", resp.StatusCode)
	}
}

// A caller that hangs up mid-walk is the caller's business, not the
// replicas': the walk stops at once (the sibling is never dialed on the
// dead context), no owner is benched or charged a breaker failure for the
// aborted attempt, and the request is not booked as owners-exhausted.
func TestCallerHangupBenchesNobody(t *testing.T) {
	metrics := obsv.New()
	r, reps := testCluster(t, 2, Config{Replication: 2, Metrics: metrics, AttemptTimeout: 5 * time.Second})
	owners := r.Owners("alpha")
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)
	primary.stall = make(chan struct{})
	defer close(primary.stall)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for primary.hits.Load() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel() // the request is parked on the stalled primary: hang up
	}()
	req := httptest.NewRequest(http.MethodGet, "/v1/report/alpha", nil).WithContext(ctx)
	r.Handler().ServeHTTP(httptest.NewRecorder(), req)

	for _, be := range owners {
		if !be.Healthy() || be.BreakerState() != BreakerClosed {
			t.Errorf("owner %s after a caller hang-up: healthy=%v breaker=%v", be.Name, be.Healthy(), be.BreakerState())
		}
	}
	if n := secondary.hits.Load(); n != 0 {
		t.Errorf("sibling owner dialed %d times on a dead context", n)
	}
	if n := metrics.Counter("cluster.owners_exhausted").Value(); n != 0 {
		t.Errorf("owners_exhausted = %d after a caller hang-up", n)
	}
}

// A saturated backend (in-flight cap reached) is skipped, not queued
// behind: with the primary wedged, a concurrent request lands on the
// secondary immediately.
func TestSaturatedBackendSkipped(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2, MaxInFlightPerBackend: 1, AttemptTimeout: 5 * time.Second})
	owners := r.Owners("alpha")
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)
	primary.stall = make(chan struct{})
	defer close(primary.stall)

	wedged := make(chan struct{})
	go func() {
		close(wedged)
		routerGet(t, r, "/v1/report/alpha", nil) // occupies primary's only slot
	}()
	<-wedged
	// Wait for the wedged request to actually hit the primary.
	deadline := time.Now().Add(2 * time.Second)
	for primary.hits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if primary.hits.Load() == 0 {
		t.Fatal("wedged request never reached the primary")
	}

	start := time.Now()
	resp, body := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusOK || body != "report alpha from "+secondary.name {
		t.Fatalf("saturated failover: %d %q", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("saturated failover took %v — queued instead of skipping", elapsed)
	}
}

// The gathered compare document is built by the same serve code a single
// node uses — assert byte-identity against serve.CompareDocument.
func TestCompareScatterGather(t *testing.T) {
	r, _ := testCluster(t, 3, Config{Replication: 2})
	resp, body := routerGet(t, r, "/v1/compare/alpha/beta", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status %d: %s", resp.StatusCode, body)
	}
	rowA := serve.DatasetRow{Name: "alpha", System: "summit", Generation: 3,
		Summary: serve.SummaryDoc{System: "summit", Logs: 10, Jobs: 5, Files: 100, NodeHours: 7}}
	rowB := serve.DatasetRow{Name: "beta", System: "cori", Generation: 1,
		Summary: serve.SummaryDoc{System: "cori", Logs: 4, Jobs: 2, Files: 40, NodeHours: 3}}
	want, err := serve.CompareDocument(rowA, rowB)
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want) {
		t.Errorf("gathered compare differs from single-node render:\n got: %s\nwant: %s", body, want)
	}
}

// /v1/datasets unions every replica's listing.
func TestDatasetsUnion(t *testing.T) {
	r, _ := testCluster(t, 3, Config{})
	resp, body := routerGet(t, r, "/v1/datasets", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var doc serve.DatasetsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Datasets) != 2 || doc.Datasets[0].Name != "alpha" || doc.Datasets[1].Name != "beta" {
		t.Errorf("union = %+v", doc.Datasets)
	}
}

// Ingest fans out to every owner of the dataset, in owner order.
func TestIngestFanout(t *testing.T) {
	r, reps := testCluster(t, 3, Config{Replication: 2})
	owners := r.Owners("mydata")

	req := httptest.NewRequest(http.MethodPost, "/v1/ingest",
		strings.NewReader(`{"dataset":"mydata","system":"summit","source":"/tmp/x"}`))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		Dataset  string `json:"dataset"`
		Replicas []struct {
			Replica string `json:"replica"`
			Parsed  int    `json:"parsed"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Dataset != "mydata" || len(doc.Replicas) != 2 {
		t.Fatalf("fanout doc = %+v", doc)
	}
	for i, res := range doc.Replicas {
		if res.Replica != owners[i].Name {
			t.Errorf("replica %d = %s, want owner %s", i, res.Replica, owners[i].Name)
		}
		if res.Parsed != 3 {
			t.Errorf("replica %d parsed = %d", i, res.Parsed)
		}
	}

	// A failed owner partway through → 502, not silent partial success.
	replicaByName(reps, owners[1].Name).mode.Store("error")
	req = httptest.NewRequest(http.MethodPost, "/v1/ingest",
		strings.NewReader(`{"dataset":"mydata","system":"summit","source":"/tmp/x"}`))
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("partial-failure ingest status %d, want 502", rec.Code)
	}
}

// The auth edge: unknown and missing keys are 401, a registered key
// passes, and a drained tenant bucket is 429 with Retry-After — while
// /healthz stays open.
func TestAuthAndRateLimit(t *testing.T) {
	clock := newFakeClock()
	keys := NewKeyring(clock.now)
	if err := keys.Add("s3cr3t", Tenant{Name: "acme", Rate: 1, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	r, _ := testCluster(t, 2, Config{Keyring: keys})

	if resp, _ := routerGet(t, r, "/v1/report/alpha", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("missing key status = %d, want 401", resp.StatusCode)
	}
	if resp, _ := routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "wrong"}); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown key status = %d, want 401", resp.StatusCode)
	}
	if resp, _ := routerGet(t, r, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz behind auth: %d", resp.StatusCode)
	}

	// Burst of 2 passes (one via Bearer), then 429.
	if resp, _ := routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "s3cr3t"}); resp.StatusCode != http.StatusOK {
		t.Errorf("valid key status = %d", resp.StatusCode)
	}
	if resp, _ := routerGet(t, r, "/v1/report/alpha", map[string]string{"Authorization": "Bearer s3cr3t"}); resp.StatusCode != http.StatusOK {
		t.Errorf("bearer key status = %d", resp.StatusCode)
	}
	resp, _ := routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "s3cr3t"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained tenant status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 without Retry-After")
	}
	// Refill restores service.
	clock.advance(2 * time.Second)
	if resp, _ := routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "s3cr3t"}); resp.StatusCode != http.StatusOK {
		t.Errorf("refilled tenant status = %d", resp.StatusCode)
	}
}

// /v1/cluster reports replica health and per-dataset ownership.
func TestClusterStatus(t *testing.T) {
	r, _ := testCluster(t, 3, Config{Replication: 2})
	resp, body := routerGet(t, r, "/v1/cluster?dataset=alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status %d", resp.StatusCode)
	}
	var doc struct {
		Replication int `json:"replication"`
		Replicas    []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
			Breaker string `json:"breaker"`
		} `json:"replicas"`
		Owners []string `json:"owners"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Replication != 2 || len(doc.Replicas) != 3 || len(doc.Owners) != 2 {
		t.Fatalf("cluster doc = %+v", doc)
	}
	for _, rep := range doc.Replicas {
		if !rep.Healthy || rep.Breaker != "closed" {
			t.Errorf("replica %s: healthy=%v breaker=%s", rep.Name, rep.Healthy, rep.Breaker)
		}
	}
}

// The active prober bens a dead replica and restores it when it returns:
// end to end through Start/Close.
func TestProberBenchesAndRestores(t *testing.T) {
	// One real readyz-answering backend, probed fast.
	var ready atomic.Bool
	ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r, err := NewRouter(Config{
		Replicas:      []string{ts.URL},
		Replication:   1,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()

	be := r.Owners("anything")[0]
	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for be.Healthy() != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if be.Healthy() != want {
			t.Fatalf("backend never became %s", what)
		}
	}
	waitFor(true, "healthy")
	ready.Store(false)
	waitFor(false, "benched after readyz went 503")
	ready.Store(true)
	waitFor(true, "restored after readyz recovered")
}
