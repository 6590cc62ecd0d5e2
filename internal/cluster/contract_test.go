package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/serve"
)

// decodeEnvelope asserts a response body is the structured error envelope
// and returns it.
func decodeEnvelope(t *testing.T, where, body string) httpapi.ErrorEnvelope {
	t.Helper()
	env, ok := httpapi.DecodeError([]byte(body))
	if !ok {
		t.Fatalf("%s: body is not an error envelope: %s", where, body)
	}
	return env
}

// TestRouterErrorEnvelopes sweeps every error the router synthesizes
// itself (as opposed to relaying) and requires the structured envelope
// with the right code on each.
func TestRouterErrorEnvelopes(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})

	resp, body := routerGet(t, r, "/v1/predict/bad%20name", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, "invalid name", body); env.Error.Code != httpapi.CodeBadRequest {
		t.Errorf("invalid name code = %q", env.Error.Code)
	}

	resp, body = routerGet(t, r, "/v1/cluster?verbose=1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown param status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, "unknown param", body); env.Error.Code != httpapi.CodeBadParam ||
		!strings.Contains(env.Error.Message, "verbose") {
		t.Errorf("unknown param envelope = %+v", env.Error)
	}

	for _, f := range reps {
		f.mode.Store("error")
	}
	resp, body = routerGet(t, r, "/v1/predict/alpha", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("owners exhausted status = %d", resp.StatusCode)
	}
	env := decodeEnvelope(t, "owners exhausted", body)
	if env.Error.Code != httpapi.CodeUnavailable || env.Error.RetryAfterMS < 1000 {
		t.Errorf("owners-exhausted envelope = %+v", env.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	for _, f := range reps {
		f.mode.Store("busy")
	}
	resp, body = routerGet(t, r, "/v1/predict/alpha", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-busy status = %d", resp.StatusCode)
	}
	env = decodeEnvelope(t, "all busy", body)
	if env.Error.Code != httpapi.CodeOverCapacity || env.Error.RetryAfterMS != 7000 {
		t.Errorf("all-busy envelope = %+v, want over_capacity honoring the upstream's 7s hint", env.Error)
	}

	// Compare's row fetch is the same owner walk, so it sheds the same way.
	resp, body = routerGet(t, r, "/v1/compare/alpha/beta", nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("all-busy compare = %d, Retry-After %q; want 429 and the upstream's 7",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	env = decodeEnvelope(t, "all-busy compare", body)
	if env.Error.Code != httpapi.CodeOverCapacity || env.Error.RetryAfterMS != 7000 {
		t.Errorf("all-busy compare envelope = %+v, want over_capacity honoring the upstream's 7s hint", env.Error)
	}

	// Nothing the mux itself refuses escapes the envelope either.
	for _, c := range []struct {
		method, path string
		status       int
		code         httpapi.Code
		allow        string
	}{
		{"GET", "/v1/nosuch", 404, httpapi.CodeNotFound, ""},
		{"DELETE", "/v1/report/x", 405, httpapi.CodeBadRequest, "GET, HEAD"},
		{"GET", "/v1/ingest", 405, httpapi.CodeBadRequest, "POST"},
	} {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		env := decodeEnvelope(t, c.method+" "+c.path, rec.Body.String())
		if rec.Code != c.status || env.Error.Code != c.code || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s = %d %q Allow %q, want %d %q Allow %q", c.method, c.path,
				rec.Code, env.Error.Code, rec.Header().Get("Allow"), c.status, c.code, c.allow)
		}
	}

	for _, f := range reps {
		f.mode.Store("error")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest",
		strings.NewReader(`{"dataset":"alpha","source":"/x","system":"summit"}`))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("fanout failure status = %d", rec.Code)
	}
	if env := decodeEnvelope(t, "ingest fanout", rec.Body.String()); env.Error.Code != httpapi.CodeUpstreamFailed {
		t.Errorf("fanout envelope code = %q", env.Error.Code)
	}
}

// TestAuthEnvelopes pins the auth edge's error contract: unauthorized and
// rate_limited, the latter carrying the bucket's actual wait.
func TestAuthEnvelopes(t *testing.T) {
	keys := NewKeyring(nil)
	if err := keys.Add("k1", Tenant{Name: "acme", Rate: 0.001, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	r, _ := testCluster(t, 2, Config{Keyring: keys})

	resp, body := routerGet(t, r, "/v1/report/alpha", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing key status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, "missing key", body); env.Error.Code != httpapi.CodeUnauthorized {
		t.Errorf("missing key code = %q", env.Error.Code)
	}

	// Drain the bucket, then the envelope must say rate_limited with a
	// positive wait in both the header and the body.
	routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "k1"})
	resp, body = routerGet(t, r, "/v1/report/alpha", map[string]string{"X-API-Key": "k1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained tenant status = %d", resp.StatusCode)
	}
	env := decodeEnvelope(t, "rate limited", body)
	if env.Error.Code != httpapi.CodeRateLimited || env.Error.RetryAfterMS < 1000 {
		t.Errorf("rate-limit envelope = %+v", env.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 without Retry-After header")
	}
}

// TestUpstreamEnvelopeRelayedVerbatim: the router never rewrites an
// upstream error body — a replica's envelope passes through byte for
// byte, headers included.
func TestUpstreamEnvelopeRelayedVerbatim(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})
	for _, f := range reps {
		f.mode.Store("notfound")
	}
	resp, body := routerGet(t, r, "/v1/predict/alpha", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want the upstream 404", resp.StatusCode)
	}
	rec := httptest.NewRecorder()
	httpapi.WriteError(rec, http.StatusNotFound, httpapi.CodeNotFound, `no dataset "alpha"`)
	if body != rec.Body.String() {
		t.Errorf("upstream envelope rewritten:\n got: %q\nwant: %q", body, rec.Body.String())
	}
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("X-Io-Backend") == "" {
		t.Error("relay without X-Io-Backend attribution")
	}
}

// fetchIndex reads a service's GET /v1 document.
func fetchIndex(t *testing.T, h http.Handler) httpapi.IndexDoc {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, httpapi.IndexPath, nil))
	var doc httpapi.IndexDoc
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
		t.Fatalf("GET /v1 = %d: %s", rec.Code, rec.Body)
	}
	return doc
}

// TestRouterIndex pins GET /v1 on the router and that the index and the
// mux cannot disagree: every advertised row is mounted (the answer is not
// the catch-all's 404/405), and what is not advertised is not mounted —
// with the metrics pair present only when there is a registry.
func TestRouterIndex(t *testing.T) {
	for _, metrics := range []*obsv.Registry{nil, obsv.New()} {
		r, _ := testCluster(t, 2, Config{Metrics: metrics})
		doc := fetchIndex(t, r.Handler())
		if doc.Service != "iorouter" || doc.SchemaVersion != httpapi.IndexSchemaVersion {
			t.Errorf("index header = v%d %q", doc.SchemaVersion, doc.Service)
		}
		unrouted := func(method, path string) bool {
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			env, ok := httpapi.DecodeError(rec.Body.Bytes())
			return rec.Code == http.StatusMethodNotAllowed ||
				rec.Code == http.StatusNotFound && (!ok || strings.HasPrefix(env.Error.Message, "no route"))
		}
		listed := map[string]bool{}
		for _, rt := range doc.Routes {
			listed[rt.Path] = true
			path := rt.Path
			for _, wildcard := range []string{"{dataset}", "{a}", "{b}"} {
				path = strings.ReplaceAll(path, wildcard, "alpha")
			}
			for _, method := range rt.Methods {
				if unrouted(method, path) {
					t.Errorf("metrics=%v: index advertises %s %s but the mux does not route it", metrics != nil, method, rt.Path)
				}
			}
		}
		if !listed["/v1/cluster"] || listed["/metrics"] != (metrics != nil) || listed["/metrics.json"] != (metrics != nil) {
			t.Errorf("metrics=%v: index lists %v", metrics != nil, listed)
		}
		for _, path := range []string{"/v1/nosuch", "/metrics", "/metrics.json"} {
			if !listed[path] && !unrouted(http.MethodGet, path) {
				t.Errorf("metrics=%v: %s is routed but not in the index", metrics != nil, path)
			}
		}
	}
}

// TestAPIDocCoversSurface is the doc-drift gate: every row of both
// services' route tables must have a row in docs/api.md's endpoint table
// with the same methods and the same query parameters, the doc may list
// no route neither service mounts, and every error code in the taxonomy
// must appear. Adding or changing an endpoint or a code without
// documenting it fails the build.
func TestAPIDocCoversSurface(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	// "| `/v1/report/{dataset}` | GET | `format`, `section` | ... |"
	documented := map[string][2]string{}
	for _, line := range strings.Split(text, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 5 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`/") {
			continue
		}
		params := strings.NewReplacer("`", "", " ", "", "—", "").Replace(cols[3])
		documented[strings.Trim(strings.TrimSpace(cols[1]), "`")] = [2]string{strings.ReplaceAll(cols[2], " ", ""), params}
	}
	r, _ := testCluster(t, 1, Config{Metrics: obsv.New()})
	mounted := map[string]httpapi.Route{}
	for _, h := range []http.Handler{r.Handler(), serve.New(serve.Config{Metrics: obsv.New()}).Handler()} {
		for _, rt := range fetchIndex(t, h).Routes {
			// The router fronts the replica's API: a path both mount is
			// declared identically in both tables.
			if prev, ok := mounted[rt.Path]; ok && !reflect.DeepEqual(prev, rt) {
				t.Errorf("the two services declare %s differently: %+v vs %+v", rt.Path, prev, rt)
			}
			mounted[rt.Path] = rt
			want := [2]string{strings.Join(rt.Methods, ","), strings.Join(rt.Params, ",")}
			if got, ok := documented[rt.Path]; !ok {
				t.Errorf("docs/api.md does not document route %s", rt.Path)
			} else if got != want {
				t.Errorf("docs/api.md row for %s says methods %q params %q, the table says %q %q",
					rt.Path, got[0], got[1], want[0], want[1])
			}
		}
	}
	for path := range documented {
		if _, ok := mounted[path]; !ok {
			t.Errorf("docs/api.md documents %s, which neither service mounts", path)
		}
	}
	for _, code := range httpapi.Codes() {
		if !strings.Contains(text, "`"+string(code)+"`") {
			t.Errorf("docs/api.md does not document error code %q", code)
		}
	}
}

// TestPredictFailover: the predict route rides the same owner-walk as
// reports — a dead primary fails over to the sibling's byte-identical
// answer.
func TestPredictFailover(t *testing.T) {
	r, reps := testCluster(t, 2, Config{Replication: 2})
	owners := r.Owners("alpha")
	primary, secondary := replicaByName(reps, owners[0].Name), replicaByName(reps, owners[1].Name)
	primary.ts.Close()

	resp, body := routerGet(t, r, "/v1/predict/alpha", nil)
	if resp.StatusCode != http.StatusOK || body != "predict alpha from "+secondary.name {
		t.Fatalf("predict failover: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Io-Backend") != secondary.name {
		t.Errorf("X-Io-Backend = %q, want %q", resp.Header.Get("X-Io-Backend"), secondary.name)
	}
}

// TestPredictByteIdentityThroughCluster is the end-to-end acceptance
// check: three real ioserved replicas ingest the same fixture corpus at
// different worker counts; the predict document is byte-identical from
// every replica directly and through a 3-replica router.
func TestPredictByteIdentityThroughCluster(t *testing.T) {
	dir := t.TempDir()
	sys := systems.NewSummit()
	if err := serve.WriteFixture(dir, sys, 24, 7); err != nil {
		t.Fatal(err)
	}
	var urls []string
	var direct []string
	for _, workers := range []int{1, 2, 4} {
		store := serve.NewStore()
		if _, _, err := store.Ingest(context.Background(), "prod", sys, dir,
			core.IngestOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.New(serve.Config{Store: store}).Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		resp, err := http.Get(ts.URL + "/v1/predict/prod")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, string(b))
	}
	for i := 1; i < len(direct); i++ {
		if direct[i] != direct[0] {
			t.Fatalf("replica %d predict document differs from replica 0", i)
		}
	}

	r, err := NewRouter(Config{Replicas: urls, Replication: 3, AttemptTimeout: 5 * time.Second, FailoverBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	resp, body := routerGet(t, r, "/v1/predict/prod", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("through-router status %d: %s", resp.StatusCode, body)
	}
	if body != direct[0] {
		t.Error("predict document through the router differs from a direct fetch")
	}
	if resp.Header.Get("X-Dataset-Generation") != "1" {
		t.Errorf("generation header not relayed: %q", resp.Header.Get("X-Dataset-Generation"))
	}
}
