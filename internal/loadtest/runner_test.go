package loadtest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"math/rand/v2"

	"iolayers/internal/httpapi"
)

// fakeAPI mimics just enough of the serve/router surface for the runner:
// per-path counters, a settable generation, and per-key behaviors.
type fakeAPI struct {
	mu       sync.Mutex
	hits     map[string]int // path → count
	gen      atomic.Int64
	diverge  atomic.Bool // serve alternating bodies at one generation
	throttle string      // API key that always gets 429
	alt      atomic.Int64
}

func newFakeAPI() *fakeAPI {
	f := &fakeAPI{hits: map[string]int{}}
	f.gen.Store(1)
	return f
}

func (f *fakeAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.hits[r.URL.Path]++
	f.mu.Unlock()
	if f.throttle != "" && r.Header.Get("X-API-Key") == f.throttle {
		httpapi.WriteErrorRetry(w, http.StatusTooManyRequests, httpapi.CodeRateLimited,
			"tenant over limit", time.Second)
		return
	}
	gen := f.gen.Load()
	// A compare names its generations in its body, one per side, and
	// carries no generation header: the shape serve.CompareDoc has.
	if strings.HasPrefix(r.URL.Path, "/v1/compare/") {
		body := fmt.Sprintf(`{"a":{"generation":%d},"b":{"generation":%d}`, gen, gen)
		if f.diverge.Load() {
			body += fmt.Sprintf(`,"alt":%d`, f.alt.Add(1))
		}
		fmt.Fprintln(w, body+"}")
		return
	}
	w.Header().Set("X-Dataset-Generation", strconv.FormatInt(gen, 10))
	body := fmt.Sprintf(`{"path":%q,"gen":%d}`, r.URL.RequestURI(), gen)
	if f.diverge.Load() {
		body = fmt.Sprintf(`{"alt":%d}`, f.alt.Add(1))
	}
	fmt.Fprintln(w, body)
}

func testScenario() Scenario {
	return Scenario{
		Name:     "unit",
		Seed:     42,
		Duration: 300 * time.Millisecond,
		Rate:     400,
		Clients:  32,
		Dataset:  "golden",
		Mix:      Mix{Report: 8, Compare: 1, Datasets: 1},
	}
}

// leg is one Run of a test: a scenario against a target.
type leg struct {
	sc     Scenario
	target string
}

// runLegs runs the legs at once and returns their results in order: the
// legs of a test are independent, sleep-bound open-loop runs, so none
// waits for another.
func runLegs(t *testing.T, legs ...leg) []*Result {
	t.Helper()
	res := make([]*Result, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, l := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(context.Background(), l.sc, Options{Target: l.target})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return res
}

func TestRunAccountsEveryArrival(t *testing.T) {
	t.Parallel()
	api := newFakeAPI()
	ts := httptest.NewServer(api)
	defer ts.Close()

	res, err := Run(context.Background(), testScenario(), Options{Target: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	// Conservation: every arrival is exactly one of shed or completed,
	// and every completed request has exactly one outcome.
	to := res.Totals
	outcomes := to.OK + to.Throttled + to.Unauthorized + to.ClientErrors + to.ServerErrors + to.NetErrors
	if outcomes != to.Completed() {
		t.Errorf("outcomes %d != completed %d", outcomes, to.Completed())
	}
	var perOp uint64
	for _, o := range res.Ops {
		perOp += o.Arrivals
	}
	if perOp != to.Arrivals {
		t.Errorf("per-op arrivals %d != total %d", perOp, to.Arrivals)
	}
	if to.HardErrors() != 0 {
		t.Errorf("clean server produced %d hard errors", to.HardErrors())
	}
	if res.Ops[string(OpReport)] == nil || res.Ops[string(OpReport)].OK == 0 {
		t.Error("report op never succeeded")
	}
	// Latency quantiles are populated and ordered.
	if l := to.LatencyUS; l.Count == 0 || l.P50 <= 0 || l.P99 < l.P50 || l.P999 < l.P99 {
		t.Errorf("latency digest %+v", l)
	}
}

// The arrival schedule and operation sequence are a pure function of the
// seed: two runs against the same healthy server issue identical request
// multisets (same total, same per-op split).
func TestRunDeterministicSchedule(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("three full load runs; tier-2 (see DESIGN.md on test tiers)")
	}
	api := newFakeAPI()
	ts := httptest.NewServer(api)
	defer ts.Close()

	sc := testScenario()
	sc.Clients = 1 << 16 // nothing shed: shedding depends on server timing
	other := sc
	other.Seed = 43
	res := runLegs(t, leg{sc, ts.URL}, leg{sc, ts.URL}, leg{other, ts.URL})
	a, b, c := res[0], res[1], res[2]
	if a.Totals.Arrivals != b.Totals.Arrivals {
		t.Errorf("arrival counts differ: %d vs %d", a.Totals.Arrivals, b.Totals.Arrivals)
	}
	for _, op := range Ops {
		var an, bn uint64
		if o := a.Ops[string(op)]; o != nil {
			an = o.Arrivals
		}
		if o := b.Ops[string(op)]; o != nil {
			bn = o.Arrivals
		}
		if an != bn {
			t.Errorf("op %s: %d vs %d arrivals", op, an, bn)
		}
	}
	// And a different seed offers a different sequence.
	if c.Totals.Arrivals == a.Totals.Arrivals &&
		c.Ops[string(OpReport)].Arrivals == a.Ops[string(OpReport)].Arrivals &&
		c.Ops[string(OpCompare)].Arrivals == a.Ops[string(OpCompare)].Arrivals {
		t.Error("seed 43 replayed seed 42's schedule exactly")
	}
}

// Saturating the client cap sheds instead of queueing: with 1 client and
// a slow server, almost everything is shed and nothing waits in line.
func TestRunShedsAtClientCap(t *testing.T) {
	t.Parallel()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		fmt.Fprintln(w, "{}")
	}))
	defer slow.Close()

	sc := testScenario()
	sc.Clients = 1
	res, err := Run(context.Background(), sc, Options{Target: slow.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Shed == 0 {
		t.Fatal("slow single-client run shed nothing")
	}
	// ~120 arrivals land while at most ceil(300ms/50ms)+1 can complete.
	if res.Totals.Completed() > 10 {
		t.Errorf("%d requests completed through 1 client in 300ms of 50ms calls — arrivals queued",
			res.Totals.Completed())
	}
}

func TestRunTaxonomy(t *testing.T) {
	t.Parallel()
	api := newFakeAPI()
	api.throttle = "key-b"
	ts := httptest.NewServer(api)
	defer ts.Close()
	// 5xx and 404 land in the right buckets.
	codes := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/datasets" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer codes.Close()

	sc := testScenario()
	sc.APIKeys = []string{"key-a", "key-b"}
	res := runLegs(t, leg{sc, ts.URL}, leg{testScenario(), codes.URL})
	if res[0].Totals.Throttled == 0 {
		t.Error("throttling key never produced a 429")
	}
	if res[0].Totals.ErrorRate != 0 {
		t.Errorf("429s leaked into the error rate: %v", res[0].Totals.ErrorRate)
	}
	if res[1].Totals.ServerErrors == 0 || res[1].Totals.ClientErrors == 0 {
		t.Errorf("taxonomy: %+v", res[1].Totals)
	}
	if res[1].Totals.ErrorRate == 0 {
		t.Error("hard errors produced a zero error rate")
	}
}

// Error bodies are held to the envelope contract: a server whose errors
// speak the structured envelope counts zero non_envelope; one that
// writes plain text is caught, without disturbing the status taxonomy.
func TestRunEnvelopeClassification(t *testing.T) {
	t.Parallel()
	sc := testScenario()
	sc.APIKeys = []string{"key-b"}

	// Leg 1: envelope-correct errors and throttles — no contract leaks.
	api := newFakeAPI()
	api.throttle = "key-b" // every request 429s with a structured envelope
	ts := httptest.NewServer(api)
	defer ts.Close()
	// Leg 2: ad-hoc plain-text errors — every one is a contract leak on
	// top of its status-class outcome.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal oops", http.StatusInternalServerError)
	}))
	defer plain.Close()

	res := runLegs(t, leg{sc, ts.URL}, leg{testScenario(), plain.URL})
	if res[0].Totals.Throttled == 0 {
		t.Fatal("throttling leg produced no 429s")
	}
	if res[0].Totals.NonEnvelope != 0 {
		t.Errorf("structured 429s counted as %d non-envelope bodies", res[0].Totals.NonEnvelope)
	}
	res2 := res[1]
	if res2.Totals.ServerErrors == 0 {
		t.Fatal("plain-error leg produced no 5xx outcomes")
	}
	if res2.Totals.NonEnvelope != res2.Totals.ServerErrors {
		t.Errorf("non_envelope %d != server errors %d: plain bodies not all flagged",
			res2.Totals.NonEnvelope, res2.Totals.ServerErrors)
	}
	if got := res2.Ops[string(OpReport)]; got == nil || got.NonEnvelope == 0 {
		t.Error("per-op non_envelope counter not populated")
	}
}

// Predict operations plan the right URL and ride the same byte-identity
// check as reports.
func TestRunPredictOp(t *testing.T) {
	t.Parallel()
	api := newFakeAPI()
	ts := httptest.NewServer(api)
	defer ts.Close()
	// A server disagreeing with itself at one generation is caught on the
	// predict route too.
	diverging := newFakeAPI()
	diverging.diverge.Store(true)
	ds := httptest.NewServer(diverging)
	defer ds.Close()

	sc := testScenario()
	sc.Mix = Mix{Predict: 1}
	res := runLegs(t, leg{sc, ts.URL}, leg{sc, ds.URL})
	o := res[0].Ops[string(OpPredict)]
	if o == nil || o.OK == 0 {
		t.Fatal("predict op never succeeded")
	}
	api.mu.Lock()
	hits := api.hits["/v1/predict/golden"]
	api.mu.Unlock()
	if hits == 0 {
		t.Error("no requests hit /v1/predict/golden")
	}
	if res[0].Totals.Divergent != 0 {
		t.Errorf("stable predict bodies misread as divergence: %d", res[0].Totals.Divergent)
	}
	if res[1].Totals.Divergent == 0 {
		t.Error("byte-divergent predict 200s went undetected")
	}
}

// The byte-identity check: same URL + same generation must yield the
// same body. A server alternating bodies at one generation is caught; a
// generation bump making bodies differ is not divergence. Reports name
// their generation in a header, compares in their body; both are keyed.
func TestRunDivergenceDetection(t *testing.T) {
	t.Parallel()
	for _, mix := range []Mix{{Report: 1}, {Compare: 1}} {
		op := OpReport
		if mix.Compare > 0 {
			op = OpCompare
		}
		t.Run(string(op), func(t *testing.T) {
			t.Parallel()
			// Leg 1: generation churn mid-run — legitimate, no divergence.
			churning := newFakeAPI()
			cs := httptest.NewServer(churning)
			defer cs.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 5; i++ {
					time.Sleep(40 * time.Millisecond)
					churning.gen.Add(1)
				}
			}()
			// Leg 2: the server disagrees with itself at a fixed generation.
			diverging := newFakeAPI()
			diverging.diverge.Store(true)
			ds := httptest.NewServer(diverging)
			defer ds.Close()

			sc := testScenario()
			sc.Mix = mix
			sc.Formats = []string{"json"}
			sc.Sections = []string{""}
			res := runLegs(t, leg{sc, cs.URL}, leg{sc, ds.URL})
			<-done
			if res[0].Ops[string(op)].OK == 0 {
				t.Fatalf("no %s op succeeded", op)
			}
			if res[0].Totals.Divergent != 0 {
				t.Errorf("generation churn misread as divergence: %d (samples %v)",
					res[0].Totals.Divergent, res[0].DivergenceSamples)
			}
			res2 := res[1]
			if res2.Totals.Divergent == 0 {
				t.Fatalf("byte-divergent %s 200s went undetected", op)
			}
			if len(res2.DivergenceSamples) == 0 {
				t.Error("divergence produced no samples")
			}
			if res2.Totals.ErrorRate == 0 {
				t.Error("divergence not counted as a hard error")
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	t.Parallel()
	sc := testScenario()
	if _, err := Run(context.Background(), sc, Options{Target: ""}); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := Run(context.Background(), sc, Options{Target: "not a url"}); err == nil {
		t.Error("relative target accepted")
	}
	bad := sc
	bad.Rate = -1
	if _, err := Run(context.Background(), bad, Options{Target: "http://localhost:1"}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRunHonorsCancel(t *testing.T) {
	t.Parallel()
	api := newFakeAPI()
	ts := httptest.NewServer(api)
	defer ts.Close()
	sc := testScenario()
	sc.Duration = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := Run(ctx, sc, Options{Target: ts.URL}); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("cancelled run took %v", e)
	}
}

func TestPickOpRespectsWeights(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 2))
	m := Mix{Report: 9, Datasets: 1}
	counts := map[Op]int{}
	for i := 0; i < 10000; i++ {
		counts[pickOp(rng, m)]++
	}
	if counts[OpCompare] != 0 || counts[OpIngest] != 0 {
		t.Errorf("zero-weight ops drawn: %v", counts)
	}
	ratio := float64(counts[OpReport]) / float64(counts[OpDatasets])
	if ratio < 7 || ratio > 12 {
		t.Errorf("9:1 mix drew %v (ratio %.1f)", counts, ratio)
	}
}
