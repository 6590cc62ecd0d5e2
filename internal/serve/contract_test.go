package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/predict"
)

// TestRouteIndex pins the GET /v1 contract — a versioned, sorted,
// machine-readable index — and that the index and the mux cannot
// disagree: every advertised row is mounted (the answer is not the
// catch-all's 404/405), and what is not advertised is not mounted, with
// the metrics pair present only when there is a registry.
func TestRouteIndex(t *testing.T) {
	for _, metrics := range []*obsv.Registry{nil, obsv.New()} {
		ts, _, _ := newTestServer(t, Config{Metrics: metrics})
		resp, body := get(t, ts.URL+"/v1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var doc httpapi.IndexDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.SchemaVersion != httpapi.IndexSchemaVersion || doc.Service != "ioserved" {
			t.Errorf("index header = v%d %q", doc.SchemaVersion, doc.Service)
		}
		unrouted := func(method, path string) bool {
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			env, ok := httpapi.DecodeError(data)
			return resp.StatusCode == http.StatusMethodNotAllowed ||
				resp.StatusCode == http.StatusNotFound && (!ok || strings.HasPrefix(env.Error.Message, "no route"))
		}
		paths := map[string]httpapi.Route{}
		for i, r := range doc.Routes {
			paths[r.Path] = r
			if i > 0 && doc.Routes[i-1].Path > r.Path {
				t.Errorf("routes not sorted: %q after %q", r.Path, doc.Routes[i-1].Path)
			}
			path := r.Path
			for _, wildcard := range []string{"{dataset}", "{a}", "{b}"} {
				path = strings.ReplaceAll(path, wildcard, "prod")
			}
			for _, method := range r.Methods {
				if unrouted(method, path) {
					t.Errorf("metrics=%v: index advertises %s %s but the mux does not route it", metrics != nil, method, r.Path)
				}
			}
		}
		for _, path := range []string{"/metrics", "/metrics.json"} {
			if _, listed := paths[path]; listed != (metrics != nil) {
				t.Errorf("metrics=%v: %s listed=%v", metrics != nil, path, listed)
			}
		}
		for _, path := range []string{"/v1/nosuch", "/v1/cluster", "/metrics", "/metrics.json"} {
			if _, listed := paths[path]; !listed && !unrouted(http.MethodGet, path) {
				t.Errorf("metrics=%v: %s is routed but not in the index", metrics != nil, path)
			}
		}
		pr, ok := paths["/v1/predict/{dataset}"]
		if !ok || pr.SchemaVersion != predict.SchemaVersion {
			t.Errorf("predict route = %+v, ok=%v", pr, ok)
		}
		rr, ok := paths["/v1/report/{dataset}"]
		if !ok || strings.Join(rr.Params, ",") != "format,section" {
			t.Errorf("report route params = %v", rr.Params)
		}
		// The index is itself parameter-free.
		resp, body = get(t, ts.URL+"/v1?verbose=1")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("index with unknown param: %d %s", resp.StatusCode, body)
		}
	}
}

// TestUnknownParamsRejected pins the shared query-param taxonomy: every
// query surface rejects parameters it does not understand with the same
// bad_param envelope, naming the offender.
func TestUnknownParamsRejected(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	cases := []struct {
		url     string
		offends string
	}{
		{"/v1/report/prod?frmt=json", "frmt"},
		{"/v1/report/prod?format=json&debug=1", "debug"},
		{"/v1/predict/prod?section=all", "section"},
		{"/v1/datasets?sort=name", "sort"},
		{"/v1/compare/prod/prod?format=json", "format"},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.url)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.url, resp.StatusCode)
			continue
		}
		env, ok := httpapi.DecodeError(body)
		if !ok || env.Error.Code != httpapi.CodeBadParam {
			t.Errorf("%s: body not a bad_param envelope: %s", c.url, body)
			continue
		}
		if !strings.Contains(env.Error.Message, c.offends) {
			t.Errorf("%s: message %q does not name %q", c.url, env.Error.Message, c.offends)
		}
	}
}

// TestErrorsAreEnvelopes sweeps the service's non-200 surfaces and
// requires every one to speak the structured envelope with the right code.
func TestErrorsAreEnvelopes(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	cases := []struct {
		method, url, body string
		status            int
		code              httpapi.Code
	}{
		{"GET", "/v1/report/bad%20name", "", 400, httpapi.CodeBadRequest},
		{"GET", "/v1/report/prod?format=yaml", "", 400, httpapi.CodeBadParam},
		{"GET", "/v1/report/nosuch", "", 404, httpapi.CodeNotFound},
		{"GET", "/v1/predict/bad%20name", "", 400, httpapi.CodeBadRequest},
		{"GET", "/v1/predict/nosuch", "", 404, httpapi.CodeNotFound},
		{"POST", "/v1/ingest", `not json`, 400, httpapi.CodeBadRequest},
		{"POST", "/v1/ingest", `{"dataset":"ok","source":"/nope","system":"mars"}`, 400, httpapi.CodeBadRequest},
		{"POST", "/v1/ingest", `{"dataset":"ok","source":"/definitely/not/here","system":"summit"}`, 422, httpapi.CodeIngestFailed},
		// What the mux itself refuses speaks the envelope too.
		{"GET", "/v1/nosuch", "", 404, httpapi.CodeNotFound},
		{"DELETE", "/v1/report/prod", "", 405, httpapi.CodeBadRequest},
		{"GET", "/v1/ingest", "", 405, httpapi.CodeBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.url, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.url, resp.StatusCode, c.status, data)
			continue
		}
		env, ok := httpapi.DecodeError(data)
		if !ok {
			t.Errorf("%s %s: not an envelope: %s", c.method, c.url, data)
			continue
		}
		if env.Error.Code != c.code {
			t.Errorf("%s %s: code %q, want %q", c.method, c.url, env.Error.Code, c.code)
		}
		if (c.status == http.StatusMethodNotAllowed) != (resp.Header.Get("Allow") != "") {
			t.Errorf("%s %s: status %d with Allow %q", c.method, c.url, c.status, resp.Header.Get("Allow"))
		}
	}
}

// TestPredictEndpoint pins the /v1/predict contract: a schema-versioned
// JSON document, cached by generation, byte-identical across fetches and
// across ingest worker counts.
func TestPredictEndpoint(t *testing.T) {
	ts, _, dir := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/predict/prod")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Dataset-Generation") != "1" {
		t.Errorf("headers: X-Cache=%q gen=%q", resp.Header.Get("X-Cache"), resp.Header.Get("X-Dataset-Generation"))
	}
	var doc predict.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != predict.SchemaVersion || doc.Dataset != "prod" || doc.Generation != 1 {
		t.Errorf("document header = %+v", doc)
	}
	if doc.Profile == nil || doc.Profile.Replay == nil {
		t.Fatal("profile or replay missing: the fixture system has a model")
	}
	if doc.Profile.Replay.RecommendedSec > doc.Profile.Replay.BaselineSec {
		t.Errorf("replay worse than baseline: %+v", doc.Profile.Replay)
	}

	resp2, body2 := get(t, ts.URL+"/v1/predict/prod")
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second fetch X-Cache = %q", resp2.Header.Get("X-Cache"))
	}
	if string(body) != string(body2) {
		t.Error("predict document differs across fetches")
	}

	// Worker-count independence: re-ingest the same corpus at different
	// parallelism; the predict document must not move a byte.
	for _, workers := range []int{1, 4} {
		store := NewStore()
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), dir,
			core.IngestOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(New(Config{Store: store}).Handler())
		t.Cleanup(ts2.Close)
		_, bodyW := get(t, ts2.URL+"/v1/predict/prod")
		if string(bodyW) != string(body) {
			t.Errorf("predict document differs at %d ingest workers", workers)
		}
	}
}
