package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
)

// Regression: a query that exceeds the server-side deadline gets 503 and
// — the part that matters — releases its concurrency slot immediately.
// With MaxInFlight=1, a wedged render followed by a normal query proves
// the slot came back; before the deadline existed the second query would
// 429 forever behind the stuck one.
func TestQueryTimeoutFreesSlot(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts, s, _ := newTestServer(t, Config{
		MaxInFlight:  1,
		QueryTimeout: 100 * time.Millisecond,
	})
	stalled := make(chan struct{}, 8)
	s.testStall = func(endpoint string, r *http.Request) {
		if r.URL.Query().Get("wedge") == "1" {
			stalled <- struct{}{}
			<-release // wedged until the test ends
		}
	}

	resp, body := get(t, ts.URL+"/v1/report/prod?wedge=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wedged query status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("timeout 503 without Retry-After")
	}
	<-stalled // the render really was in flight when the deadline hit

	// The slot must be free: an ordinary query succeeds, not 429.
	resp, body = get(t, ts.URL+"/v1/report/prod")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after timeout = %d (%s) — the slot leaked", resp.StatusCode, body)
	}
}

// A generous deadline leaves fast queries untouched, and a negative
// QueryTimeout disables the deadline machinery entirely.
func TestQueryTimeoutDisabledAndGenerous(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{QueryTimeout: -1})
	if resp, body := get(t, ts.URL+"/v1/report/prod"); resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled-timeout query = %d (%s)", resp.StatusCode, body)
	}
	ts2, _, _ := newTestServer(t, Config{QueryTimeout: time.Minute})
	if resp, body := get(t, ts2.URL+"/v1/report/prod"); resp.StatusCode != http.StatusOK {
		t.Fatalf("generous-timeout query = %d (%s)", resp.StatusCode, body)
	}
}

// Liveness and readiness are distinct: /healthz stays 200 while /readyz
// tracks SetReady.
func TestReadinessSplitFromLiveness(t *testing.T) {
	ts, s, _ := newTestServer(t, Config{})

	for _, path := range []string{"/healthz", "/readyz"} {
		if resp, body := get(t, ts.URL+path); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d (%s)", path, resp.StatusCode, body)
		}
	}

	// Not ready (boot recovery in progress): readyz 503, healthz still 200,
	// and queries still answer — readiness is advertisement, not a gate.
	s.SetReady(false)
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("not-ready /readyz without Retry-After")
	}
	if string(body) != "not ready: recovering\n" {
		t.Errorf("not-ready body = %q", body)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Error("liveness went down with readiness")
	}
	if resp, _ := get(t, ts.URL+"/v1/report/prod"); resp.StatusCode != http.StatusOK {
		t.Error("not-ready server refused a query")
	}

	s.SetReady(true)
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Error("readyz did not come back with the gate")
	}
}

// Compaction does not bench a replica: a /readyz hammer running through
// 40 lake-backed ingests that compact at every second record sees only
// 200s.
func TestReadyzUpThroughCompaction(t *testing.T) {
	lake := openLake(t, t.TempDir(), 2)
	store := lakeStore(t, lake)
	_, s, dir := newTestServer(t, Config{Store: store})

	var probes, notReady atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			probes.Add(1)
			if rec.Code != http.StatusOK {
				notReady.Add(1)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, _, err := store.Ingest(context.Background(), "prod", systems.NewSummit(), dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if n := lake.metrics.Counter("serve.lake.compactions").Value(); n < 20 {
		t.Fatalf("%d compactions in 40 ingests at CompactEvery 2", n)
	}
	if n := notReady.Load(); n != 0 {
		t.Errorf("/readyz answered non-200 to %d of %d probes during ingests and compactions", n, probes.Load())
	}
}
