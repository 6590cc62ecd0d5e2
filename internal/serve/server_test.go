package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
)

// newTestServer ingests a small corpus into dataset "prod" and returns the
// httptest server plus the source dir and the Server for white-box checks.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, string) {
	t.Helper()
	dir := corpusDir(t, 4)
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	if _, _, err := cfg.Store.Ingest(context.Background(), "prod", systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s, dir
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// The core API contract: the served JSON report is byte-identical to what
// ioanalyze -format json renders over the same logs.
func TestReportMatchesDirectRendering(t *testing.T) {
	ts, _, dir := newTestServer(t, Config{})

	rep, _, err := core.Ingest(context.Background(), systems.NewSummit(), dir, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.RenderString(rep, report.Options{Format: report.FormatJSON})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/v1/report/prod?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != want {
		t.Error("served JSON report differs from direct rendering")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	// Per-section and text/csv formats render through the same path.
	resp, body = get(t, ts.URL+"/v1/report/prod?section=table2")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Table 2") {
		t.Errorf("section fetch: status %d body %.80s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/v1/report/prod?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("csv fetch: status %d", resp.StatusCode)
	}
}

func TestReportCacheHitMissAndInvalidation(t *testing.T) {
	metrics := obsv.New()
	ts, _, dir := newTestServer(t, Config{Metrics: metrics})

	url := ts.URL + "/v1/report/prod?format=json"
	resp1, body1 := get(t, url)
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first fetch X-Cache = %q, want miss", got)
	}
	resp2, body2 := get(t, url)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second fetch X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from rendered body")
	}
	if hits := metrics.Counter("serve.cache.hits").Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// Re-ingest: the generation bumps, so the same URL is a miss again and
	// the report now covers twice the logs.
	ingestBody, _ := json.Marshal(map[string]string{"dataset": "prod", "source": dir})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(ingestBody))
	if err != nil {
		t.Fatal(err)
	}
	ir, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, ir)
	}
	var ingested ingestResponse
	if err := json.Unmarshal(ir, &ingested); err != nil {
		t.Fatal(err)
	}
	if ingested.Generation != 2 {
		t.Errorf("generation after re-ingest = %d, want 2", ingested.Generation)
	}

	resp3, body3 := get(t, url)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("post-ingest fetch X-Cache = %q, want miss", got)
	}
	if gen := resp3.Header.Get("X-Dataset-Generation"); gen != "2" {
		t.Errorf("generation header = %q", gen)
	}
	var before, after report.Document
	if err := json.Unmarshal(body1, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body3, &after); err != nil {
		t.Fatal(err)
	}
	if after.Summary.Logs != 2*before.Summary.Logs {
		t.Errorf("after re-ingest logs = %d, want %d", after.Summary.Logs, 2*before.Summary.Logs)
	}
}

func TestBackpressure429(t *testing.T) {
	metrics := obsv.New()
	ts, s, _ := newTestServer(t, Config{Metrics: metrics, MaxInFlight: 2})

	// Occupy every slot, as slow in-flight requests would.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, body := get(t, ts.URL+"/v1/report/prod")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q", ra)
	}
	env, ok := httpapi.DecodeError(body)
	if !ok || env.Error.Code != httpapi.CodeOverCapacity {
		t.Errorf("429 body not an over_capacity envelope: %s", body)
	}
	if env.Error.RetryAfterMS != 1000 {
		t.Errorf("429 retry_after_ms = %d, want 1000", env.Error.RetryAfterMS)
	}
	if metrics.Counter("serve.throttled").Value() != 1 {
		t.Error("throttle counter not bumped")
	}

	// Release one slot; queries flow again.
	<-s.sem
	resp, _ = get(t, ts.URL+"/v1/report/prod")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release status %d", resp.StatusCode)
	}
	<-s.sem
}

func TestMalformedRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/report/" + strings.Repeat("a", 65), http.StatusBadRequest},
		{"/v1/report/bad%20name", http.StatusBadRequest},
		{"/v1/report/prod?format=yaml", http.StatusBadRequest},
		{"/v1/report/prod?section=table99", http.StatusBadRequest},
		{"/v1/report/prod?format=csv&section=table2", http.StatusBadRequest},
		{"/v1/report/nosuch", http.StatusNotFound},
		{"/v1/compare/prod/nosuch", http.StatusNotFound},
		{"/v1/compare/prod/" + strings.Repeat("b", 65), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.url)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%.80s)", c.url, resp.StatusCode, c.want, body)
			continue
		}
		if env, ok := httpapi.DecodeError(body); !ok || env.Error.Message == "" {
			t.Errorf("%s: error body not an envelope: %s", c.url, body)
		}
	}

	// Ingest validation.
	for _, payload := range []string{
		`{"dataset":"x y","source":"/tmp"}`,
		`{"dataset":"ok"}`,
		`{"dataset":"ok","source":"/nope","system":"mars"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest %q: status %d, want 400", payload, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"dataset":"ok","source":"/definitely/not/here","system":"summit"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("missing source: status %d, want 422", resp.StatusCode)
	}
}

// FuzzIngestRequest holds the one ingest-body check to its contract on
// any input: no panic, and an accepted body is a single JSON document
// naming a valid dataset and a source.
func FuzzIngestRequest(f *testing.F) {
	for _, body := range []string{
		`{"dataset":"prod","system":"summit","source":"/tmp/x"}`,
		`{"dataset":"a","source":"/x"} trailing`,
		`{"dataset":"a","source":"/x"}{}`,
		`{"dataset":"a","source":"/x","extra":1}`,
		`{"dataset":"x y","source":"/tmp"}`,
		`{"dataset":"ok"}`,
		`not json`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseIngestRequest(body)
		if err == nil && (!ValidDatasetName(req.Dataset) || req.Source == "" || !json.Valid(body)) {
			t.Fatalf("parseIngestRequest(%q) accepted %+v", body, req)
		}
	})
}

func TestDatasetsAndCompare(t *testing.T) {
	store := NewStore()
	ts, _, dir := newTestServer(t, Config{Store: store})
	if _, _, err := store.Ingest(context.Background(), "other", systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var dsResp DatasetsDoc
	if err := json.Unmarshal(body, &dsResp); err != nil {
		t.Fatal(err)
	}
	if dsResp.SchemaVersion != report.SchemaVersion || len(dsResp.Datasets) != 2 {
		t.Fatalf("schema=%d datasets=%d", dsResp.SchemaVersion, len(dsResp.Datasets))
	}
	if dsResp.Datasets[0].Name != "other" || dsResp.Datasets[1].Name != "prod" {
		t.Errorf("dataset order: %s, %s", dsResp.Datasets[0].Name, dsResp.Datasets[1].Name)
	}

	resp, body = get(t, ts.URL+"/v1/compare/prod/other")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status %d: %s", resp.StatusCode, body)
	}
	var cmp CompareDoc
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	if cmp.A.Name != "prod" || cmp.B.Name != "other" || cmp.SchemaVersion != report.SchemaVersion {
		t.Errorf("compare envelope: %+v", cmp)
	}
	if cmp.Delta.Logs != cmp.B.Summary.Logs-cmp.A.Summary.Logs {
		t.Error("delta.logs inconsistent")
	}
	// Same corpus both sides: everything cancels.
	if cmp.Delta.Logs != 0 || cmp.Delta.Files != 0 {
		t.Errorf("delta = %+v, want zero", cmp.Delta)
	}
	if resp2, _ := get(t, ts.URL+"/v1/compare/prod/other"); resp2.Header.Get("X-Cache") != "hit" {
		t.Error("compare not cached")
	}
}

// The acceptance-criteria load test: ≥64 concurrent in-flight queries
// against a live re-ingest. Under -race this proves the copy-on-write
// publish discipline end to end: every 200 body is a complete, valid
// document from some published generation, never a torn intermediate.
func TestConcurrentQueriesDuringLiveReingest(t *testing.T) {
	store := NewStore()
	ts, _, dir := newTestServer(t, Config{Store: store, MaxInFlight: 256})

	sections := []string{"", "table2", "figure7", "users"}
	formats := []string{"json", "text"}
	validLogs := map[int64]bool{4: true, 8: true, 12: true, 16: true}

	const workers = 64
	var served atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	client := &http.Client{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/report/prod?section=%s&format=%s",
					ts.URL, sections[(w+i)%len(sections)], formats[w%len(formats)])
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					if formats[w%len(formats)] == "json" {
						var doc report.Document
						if err := json.Unmarshal(body, &doc); err != nil {
							t.Errorf("torn JSON body: %v", err)
							return
						}
						if doc.SchemaVersion != report.SchemaVersion || !validLogs[doc.Summary.Logs] {
							t.Errorf("impossible document: schema=%d logs=%d", doc.SchemaVersion, doc.Summary.Logs)
							return
						}
					}
				case http.StatusTooManyRequests:
					// Load shedding is a valid answer under this hammering.
				default:
					t.Errorf("status %d: %.120s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}

	// Live re-ingests while the readers hammer: 4 → 8 → 12 → 16 logs.
	for gen := 2; gen <= 4; gen++ {
		payload, _ := json.Marshal(map[string]string{"dataset": "prod", "source": dir})
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("re-ingest %d: status %d: %s", gen, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no queries were served during the re-ingest window")
	}
	if snap, _ := store.Get("prod"); snap.Gen != 4 || snap.Report.Summary.Logs != 16 {
		t.Errorf("final gen=%d logs=%d, want 4/16", snap.Gen, snap.Report.Summary.Logs)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	metrics := obsv.New()
	ts, _, _ := newTestServer(t, Config{Metrics: metrics})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	get(t, ts.URL+"/v1/report/prod")
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "serve.report.requests") {
		t.Errorf("metrics missing request counter:\n%s", body)
	}
	resp, body = get(t, ts.URL+"/metrics.json")
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Error("metrics.json not valid JSON")
	}
}
