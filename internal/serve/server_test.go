package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// The listing is rendered once per snapshot set: two listings with no
// publish between them are the same bytes, from the same memo, and equal a
// fresh render of the store's rows; a returned Store.Ingest shows in the
// very next listing.
func TestDatasetsListingMemo(t *testing.T) {
	store := NewStore()
	ts, s, dir := newTestServer(t, Config{Store: store})
	render := func() []byte {
		doc := DatasetsDoc{SchemaVersion: report.SchemaVersion, Datasets: []DatasetRow{}}
		for _, snap := range store.List() {
			doc.Datasets = append(doc.Datasets, RowOf(snap))
		}
		want, err := MarshalDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	listing := func(what string) []byte {
		t.Helper()
		resp, body := get(t, ts.URL+"/v1/datasets")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", what, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if xc := resp.Header.Get("X-Cache"); xc != "" {
			t.Errorf("%s: X-Cache %q, want none", what, xc)
		}
		if want := render(); !bytes.Equal(body, want) {
			t.Fatalf("%s differs from a fresh render:\n got: %s\nwant: %s", what, body, want)
		}
		return body
	}

	first := listing("first listing")
	memo := s.listing.Load()
	if second := listing("second listing"); !bytes.Equal(first, second) || s.listing.Load() != memo {
		t.Error("a listing with no publish since the last one rendered again")
	}
	for gen := uint64(2); gen <= 3; gen++ {
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		var doc DatasetsDoc
		if err := json.Unmarshal(listing("listing after an ingest"), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Datasets) != 1 || doc.Datasets[0].Generation != gen {
			t.Fatalf("listing after ingest %d: %+v", gen, doc.Datasets)
		}
	}
	if s.listing.Load() == memo {
		t.Error("the memo outlived two publishes")
	}
}

// A dataset compared with itself is the router's row fetch: the same bytes
// as any compare, rendered once per snapshot and kept out of the render
// cache and its counters.
func TestSelfCompareOutsideRenderCache(t *testing.T) {
	metrics := obsv.New()
	store := NewStore()
	ts, s, dir := newTestServer(t, Config{Store: store, Metrics: metrics})
	for gen := uint64(1); gen <= 2; gen++ {
		snap, _ := store.Get("prod")
		want, err := CompareDocument(RowOf(snap), RowOf(snap))
		if err != nil {
			t.Fatal(err)
		}
		for _, xcache := range []string{"miss", "hit"} {
			resp, body := get(t, ts.URL+"/v1/compare/prod/prod")
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("generation %d self-compare: %d\n got: %s\nwant: %s", gen, resp.StatusCode, body, want)
			}
			if got := resp.Header.Get("X-Cache"); got != xcache {
				t.Errorf("generation %d self-compare X-Cache = %q, want %q", gen, got, xcache)
			}
		}
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := metrics.Counter("serve.cache.hits").Value() + metrics.Counter("serve.cache.misses").Value(); n != 0 || s.cache.Len() != 0 {
		t.Errorf("self-compares made %d render-cache lookups and left %d entries, want none", n, s.cache.Len())
	}
}

// Listings and source lists racing ingests (run under -race): every body
// parses, no reader sees a dataset's generation go backwards, and a
// source list holds one source per generation.
func TestDatasetsListingDuringIngests(t *testing.T) {
	store := NewStore()
	ts, _, dir := newTestServer(t, Config{Store: store})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var listed atomic.Int64
	fetch := func(path string, doc any) bool {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			err = json.Unmarshal(body, doc)
		}
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("%s: status %d, %v: %.120s", path, resp.StatusCode, err, body)
			return false
		}
		return true
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[string]uint64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var doc DatasetsDoc
				if !fetch("/v1/datasets", &doc) {
					return
				}
				for _, row := range doc.Datasets {
					if row.Generation < seen[row.Name] {
						t.Errorf("%s went back from generation %d to %d", row.Name, seen[row.Name], row.Generation)
						return
					}
					seen[row.Name] = row.Generation
					var src SourcesDoc
					if !fetch("/v1/datasets/"+row.Name+"/sources", &src) {
						return
					}
					if src.Name != row.Name || src.Generation < row.Generation || len(src.Sources) != int(src.Generation) ||
						slices.ContainsFunc(src.Sources, func(s string) bool { return s != dir }) {
						t.Errorf("%s sources after listing generation %d: %+v", row.Name, row.Generation, src)
						return
					}
					seen[row.Name] = src.Generation
				}
				listed.Add(1)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{"prod", "other"} {
			if _, _, err := store.Ingest(context.Background(), name, systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
				t.Fatal(err)
			}
			// Let every reader list each generation before the next publish.
			for n := listed.Load(); listed.Load() < n+4 && !t.Failed(); {
				time.Sleep(time.Millisecond)
			}
		}
	}
	close(stop)
	wg.Wait()
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

// corpusFiles writes corpusDir's n logs and returns their paths, each one
// a single-log ingest source.
func corpusFiles(t *testing.T, n int) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir(t, n), "*.darshan"))
	if err != nil || len(files) != n {
		t.Fatalf("corpus files %v: %v", files, err)
	}
	return files
}

// The listing row does not grow with ingests: after 1,000 ingests into
// one dataset the /v1/datasets body differs from the one after 10 only in
// its numbers — the generation, and the summary's counts that the extra
// logs raise — while /v1/datasets/{dataset}/sources holds all 1,000
// sources in ingest order.
func TestDatasetsListingStaysBounded(t *testing.T) {
	const ingests = 1000
	files := corpusFiles(t, 3)
	store := NewStore()
	ts := httptest.NewServer(New(Config{Store: store}).Handler())
	t.Cleanup(ts.Close)
	var want []string
	var at10 []byte
	for i := 0; i < ingests; i++ {
		src := files[i%len(files)]
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), src, core.IngestOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		want = append(want, src)
		if i+1 == 10 {
			_, at10 = get(t, ts.URL+"/v1/datasets")
		}
	}
	_, at1000 := get(t, ts.URL+"/v1/datasets")
	numbers := regexp.MustCompile(`[0-9][0-9.e+-]*`)
	if a, b := numbers.ReplaceAll(at10, []byte("#")), numbers.ReplaceAll(at1000, []byte("#")); !bytes.Equal(a, b) {
		t.Errorf("listing after %d ingests differs from the one after 10 beyond its numbers:\n%s\n%s", ingests, at10, at1000)
	}
	if !bytes.Contains(at1000, []byte(`"generation": 1000,`)) {
		t.Errorf("listing after %d ingests: %s", ingests, at1000)
	}

	resp, body := get(t, ts.URL+"/v1/datasets/prod/sources")
	var doc SourcesDoc
	if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sources: %d %v", resp.StatusCode, err)
	}
	if doc.SchemaVersion != report.SchemaVersion || doc.Name != "prod" || doc.Generation != ingests ||
		resp.Header.Get("X-Dataset-Generation") != fmt.Sprint(ingests) || !slices.Equal(doc.Sources, want) {
		t.Errorf("sources after %d ingests: header %q, schema %d, %s at %d with %d sources",
			ingests, resp.Header.Get("X-Dataset-Generation"), doc.SchemaVersion, doc.Name, doc.Generation, len(doc.Sources))
	}
}

// /v1/datasets/{dataset}/sources lists every source in ingest order, the
// same bytes after a lake restart (compactions fold the list into one
// record), and answers an unknown dataset 404 not_found.
func TestSourcesRoute(t *testing.T) {
	files := corpusFiles(t, 3)
	lakeDir := t.TempDir()
	store := lakeStore(t, openLake(t, lakeDir, 3))
	var want []string
	for i := 0; i < 7; i++ {
		src := files[(i*2)%len(files)]
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), src, core.IngestOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		want = append(want, src)
	}
	sources := func(store *Store, what string) []byte {
		t.Helper()
		ts := httptest.NewServer(New(Config{Store: store}).Handler())
		defer ts.Close()
		resp, body := get(t, ts.URL+"/v1/datasets/prod/sources")
		var doc SourcesDoc
		if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK ||
			resp.Header.Get("X-Dataset-Generation") != "7" || doc.Generation != 7 || !slices.Equal(doc.Sources, want) {
			t.Fatalf("%s: %d %q %s", what, resp.StatusCode, resp.Header.Get("X-Dataset-Generation"), body)
		}
		resp, body = get(t, ts.URL+"/v1/datasets/nosuch/sources")
		if env, ok := httpapi.DecodeError(body); resp.StatusCode != http.StatusNotFound || !ok || env.Error.Code != httpapi.CodeNotFound {
			t.Errorf("%s: unknown dataset answered %d %s", what, resp.StatusCode, body)
		}
		return body
	}
	before := sources(store, "before the restart")
	if after := sources(lakeStore(t, openLake(t, lakeDir, 3)), "after the restart"); !bytes.Equal(before, after) {
		t.Errorf("sources differ across a lake restart:\n%s\n%s", before, after)
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
