package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iolayers/internal/obsv"
)

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, 404, CodeNotFound, `no dataset "x"`)
	if rec.Code != 404 || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, content-type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	env, ok := DecodeError(rec.Body.Bytes())
	if !ok || env.Error.Code != CodeNotFound || env.Error.RetryAfterMS != 0 {
		t.Errorf("decoded %+v, ok=%v", env, ok)
	}
	if !strings.HasSuffix(rec.Body.String(), "\n") {
		t.Error("envelope body missing trailing newline")
	}
}

func TestWriteErrorRetryFloorsAndRounds(t *testing.T) {
	// Sub-second hints floor to 1s in both the header and the body.
	rec := httptest.NewRecorder()
	WriteErrorRetry(rec, 429, CodeOverCapacity, "shed", 200*time.Millisecond)
	env, _ := DecodeError(rec.Body.Bytes())
	if rec.Header().Get("Retry-After") != "1" || env.Error.RetryAfterMS != 1000 {
		t.Errorf("floor: header %q, body %d", rec.Header().Get("Retry-After"), env.Error.RetryAfterMS)
	}
	// Fractional seconds round the header up; the body keeps the ms.
	rec = httptest.NewRecorder()
	WriteErrorRetry(rec, 429, CodeRateLimited, "wait", 1500*time.Millisecond)
	env, _ = DecodeError(rec.Body.Bytes())
	if rec.Header().Get("Retry-After") != "2" || env.Error.RetryAfterMS != 1500 {
		t.Errorf("round: header %q, body %d", rec.Header().Get("Retry-After"), env.Error.RetryAfterMS)
	}
}

func TestDecodeErrorRejectsNonEnvelopes(t *testing.T) {
	for _, body := range []string{
		``, `not json`, `{}`, `{"error":"flat legacy string"}`,
		`{"error":{"message":"code missing"}}`, `<html>proxy page</html>`,
	} {
		if _, ok := DecodeError([]byte(body)); ok {
			t.Errorf("%q decoded as an envelope", body)
		}
	}
}

func TestQueryTaxonomy(t *testing.T) {
	r := httptest.NewRequest("GET", "/x?format=json&section=table2", nil)
	params, err := Query(r, "format", "section")
	if err != nil || params["format"] != "json" || params["section"] != "table2" {
		t.Errorf("params %v, err %v", params, err)
	}
	// The first unknown (sorted) is named, along with the allowed set.
	r = httptest.NewRequest("GET", "/x?zz=1&aa=2&format=json", nil)
	if _, err := Query(r, "format"); err == nil ||
		!strings.Contains(err.Error(), `"aa"`) || !strings.Contains(err.Error(), "format") {
		t.Errorf("unknown-param error = %v", err)
	}
	// No allowed params at all says so.
	r = httptest.NewRequest("GET", "/x?any=1", nil)
	if _, err := Query(r, nil...); err == nil || !strings.Contains(err.Error(), "none") {
		t.Errorf("param-free error = %v", err)
	}
}

func TestBuildIndexSorts(t *testing.T) {
	doc := BuildIndex("svc", []Route{
		{Path: "/v1/z", Methods: []string{"GET"}},
		{Path: "/v1/a", Methods: []string{"POST"}},
		{Path: "/v1/a", Methods: []string{"GET"}},
	})
	if doc.SchemaVersion != IndexSchemaVersion || doc.Service != "svc" {
		t.Errorf("header %+v", doc)
	}
	got := make([]string, len(doc.Routes))
	for i, r := range doc.Routes {
		got[i] = r.Path + ":" + r.Methods[0]
	}
	want := "/v1/a:GET,/v1/a:POST,/v1/z:GET"
	if strings.Join(got, ",") != want {
		t.Errorf("sorted %v, want %s", got, want)
	}
}

// TestMountPipeline pins what Mount derives from a row: the order of the
// checks (path values, then parameters), the parsed query handed to the
// handler, metrics resolved under the row's name, Admit outside all of
// it, and the envelope catch-all.
func TestMountPipeline(t *testing.T) {
	reg := obsv.New()
	admit := true
	h := Mount(Table{
		Service: "svc", Metrics: reg, MetricPrefix: "svc",
		ValidDataset: func(name string) bool { return name != "bad" },
		Ready:        func(w http.ResponseWriter, _ *http.Request) {},
		Routes: []Route{
			{Name: "index", Path: IndexPath, SchemaVersion: IndexSchemaVersion},
			{Name: "thing", Path: "/v1/thing/{dataset}", Params: []string{"format"},
				Admit: func(next http.HandlerFunc) http.HandlerFunc {
					return func(w http.ResponseWriter, r *http.Request) {
						if !admit {
							WriteError(w, 401, CodeUnauthorized, "no")
							return
						}
						next(w, r)
					}
				},
				Handler: func(w http.ResponseWriter, r *http.Request) {
					io.WriteString(w, r.PathValue("dataset")+":"+r.FormValue("format"))
				}},
		},
	})
	do := func(method, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		return rec
	}
	code := func(rec *httptest.ResponseRecorder) Code {
		env, _ := DecodeError(rec.Body.Bytes())
		return env.Error.Code
	}

	if rec := do("GET", "/v1/thing/x?format=json"); rec.Code != 200 || rec.Body.String() != "x:json" {
		t.Errorf("handler saw %d %q", rec.Code, rec.Body)
	}
	if rec := do("GET", "/v1/thing/bad?frmt=1"); rec.Code != 400 || code(rec) != CodeBadRequest {
		t.Errorf("bad name + bad param = %d %q, want the name judged first", rec.Code, code(rec))
	}
	if rec := do("GET", "/v1/thing/x?frmt=1"); rec.Code != 400 || code(rec) != CodeBadParam {
		t.Errorf("bad param = %d %q", rec.Code, code(rec))
	}
	admit = false
	if rec := do("GET", "/v1/thing/x"); rec.Code != 401 {
		t.Errorf("Admit bypassed: %d", rec.Code)
	}
	if n := reg.Counter("svc.thing.requests").Value(); n != 3 {
		t.Errorf("svc.thing.requests = %d, want 3 (the turned-away request is not counted)", n)
	}
	if n := reg.TimeHistogram("svc.thing.latency_us").Count(); n != 3 {
		t.Errorf("svc.thing.latency_us count = %d, want 3", n)
	}

	// Operational endpoints are bare: no parameter check, no counting.
	if rec := do("GET", "/healthz?probe=1"); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body)
	}
	if rec := do("GET", "/metrics"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "svc.thing.requests") {
		t.Errorf("metrics = %d %q", rec.Code, rec.Body)
	}

	if rec := do("GET", "/v1/other"); rec.Code != 404 || code(rec) != CodeNotFound {
		t.Errorf("unknown route = %d %q", rec.Code, code(rec))
	}
	rec := do("POST", "/v1/thing/x")
	if rec.Code != 405 || code(rec) != CodeBadRequest || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("wrong method = %d %q Allow %q", rec.Code, code(rec), rec.Header().Get("Allow"))
	}
	admit = true
	if rec := do("HEAD", "/v1/thing/x"); rec.Code != 200 {
		t.Errorf("HEAD on a GET row = %d", rec.Code)
	}
}

func TestCodesEnumerationComplete(t *testing.T) {
	seen := map[Code]bool{}
	for _, c := range Codes() {
		if seen[c] {
			t.Errorf("code %q listed twice", c)
		}
		seen[c] = true
	}
	if len(seen) != 11 {
		t.Errorf("Codes() lists %d codes; update it (and docs/api.md) when the taxonomy grows", len(seen))
	}
}
