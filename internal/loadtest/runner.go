package loadtest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"math/rand/v2"

	"iolayers/internal/httpapi"
	"iolayers/internal/obsv"
)

// Options configures a Run beyond the scenario itself.
type Options struct {
	// Target is the base URL of the service under test — a single
	// ioserved or an iorouter front-end; the generator cannot tell the
	// difference and should not be able to.
	Target string
	// Client overrides the HTTP client (nil builds one sized for the
	// scenario's client cap — the default transport's 2 idle conns per
	// host would serialize everything).
	Client *http.Client
	// Logf, when set, receives one progress line per second.
	Logf func(format string, args ...any)
}

// call is one planned arrival: everything random about it is decided by
// the scheduler goroutine, in schedule order, so the request sequence is
// a pure function of the scenario seed.
type call struct {
	op     Op
	url    string
	body   []byte // POST body; nil means GET
	apikey string
	sched  time.Time // the scheduled arrival instant — latency is measured from here
}

// opCounters accumulates one operation class's outcomes. Everything is
// under the runner's mutex except the histogram, which is internally
// atomic.
type opCounters struct {
	arrivals     uint64
	shed         uint64
	ok           uint64
	throttled    uint64
	unauthorized uint64
	clientErrors uint64
	serverErrors uint64
	netErrors    uint64
	divergent    uint64
	nonEnvelope  uint64
	latency      *obsv.HDR
}

// runner is the live state of one Run.
type runner struct {
	sc     Scenario
	opts   Options
	client *http.Client

	mu      sync.Mutex
	ops     map[Op]*opCounters
	bodies  map[string][32]byte // (path|generation) → first body digest
	samples []string            // first few divergence descriptions
}

// Run drives the scenario against opts.Target and returns the measured
// result. It returns early (with partial results discarded and an error)
// only for configuration problems; a misbehaving server shows up in the
// result's error taxonomy, not as a Go error. Cancelling ctx stops
// generating arrivals and drains in-flight requests.
func Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.Target == "" {
		return nil, fmt.Errorf("loadtest: no target")
	}
	base, err := url.Parse(opts.Target)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("loadtest: target %q is not an absolute URL", opts.Target)
	}
	r := &runner{
		sc:     sc,
		opts:   opts,
		client: opts.Client,
		ops:    map[Op]*opCounters{},
		bodies: map[string][32]byte{},
	}
	for _, op := range Ops {
		r.ops[op] = &opCounters{latency: &obsv.HDR{}}
	}
	if r.client == nil {
		tr := &http.Transport{
			MaxIdleConns:        sc.Clients,
			MaxIdleConnsPerHost: sc.Clients,
			MaxConnsPerHost:     0,
			IdleConnTimeout:     30 * time.Second,
		}
		r.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}

	// The open loop: arrivals land on a precomputed Poisson timeline.
	// Falling behind schedule never drops or delays an arrival decision —
	// the dispatch just happens late, and the latency clock has already
	// started at the scheduled instant, so server-side stalls are charged
	// in full (no coordinated omission).
	rng := rand.New(rand.NewPCG(sc.Seed, 0x10ad7e57))
	sem := make(chan struct{}, sc.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	lastLog := start
	var offset time.Duration
	for {
		offset += time.Duration(rng.ExpFloat64() / sc.Rate * float64(time.Second))
		if offset >= sc.Duration || ctx.Err() != nil {
			break
		}
		c := r.plan(rng, base)
		c.sched = start.Add(offset)
		if d := time.Until(c.sched); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		oc := r.ops[c.op]
		r.mu.Lock()
		oc.arrivals++
		r.mu.Unlock()
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r.execute(ctx, c, oc)
			}()
		default:
			// Every client is busy: the arrival is shed at the edge of the
			// generator, counted, and never retried. Queueing it would
			// hide server slowness inside generator queue depth.
			r.mu.Lock()
			oc.shed++
			r.mu.Unlock()
		}
		if r.opts.Logf != nil && time.Since(lastLog) >= time.Second {
			lastLog = time.Now()
			r.mu.Lock()
			var arr, shed uint64
			for _, oc := range r.ops {
				arr += oc.arrivals
				shed += oc.shed
			}
			r.mu.Unlock()
			r.opts.Logf("t=%v arrivals=%d shed=%d", offset.Round(time.Second), arr, shed)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	return r.collect(elapsed), nil
}

// plan decides everything random about the next arrival. It runs only on
// the scheduler goroutine: one rng, strict schedule order, deterministic
// sequence per seed.
func (r *runner) plan(rng *rand.Rand, base *url.URL) call {
	sc := &r.sc
	c := call{op: pickOp(rng, sc.Mix)}
	if len(sc.APIKeys) > 0 {
		c.apikey = sc.APIKeys[rng.IntN(len(sc.APIKeys))]
	}
	switch c.op {
	case OpReport:
		q := url.Values{}
		sec := sc.Sections[rng.IntN(len(sc.Sections))]
		format := sc.Formats[rng.IntN(len(sc.Formats))]
		// CSV renders the whole report only — the API 400s a
		// section-restricted CSV, so keep the plan legal by construction
		// (both rng draws still happen: the schedule stays seed-stable).
		if format == "csv" {
			sec = ""
		}
		if sec != "" {
			q.Set("section", sec)
		}
		q.Set("format", format)
		c.url = base.JoinPath("v1", "report", sc.Dataset).String() + "?" + q.Encode()
	case OpCompare:
		other := sc.CompareWith
		if other == "" {
			other = sc.Dataset
		}
		c.url = base.JoinPath("v1", "compare", sc.Dataset, other).String()
	case OpPredict:
		c.url = base.JoinPath("v1", "predict", sc.Dataset).String()
	case OpDatasets:
		c.url = base.JoinPath("v1", "datasets").String()
	case OpIngest:
		c.url = base.JoinPath("v1", "ingest").String()
		c.body = fmt.Appendf(nil, `{"dataset":%q,"system":%q,"source":%q}`,
			sc.IngestDataset, sc.IngestSystem, sc.IngestSource)
	}
	return c
}

// pickOp samples the mix by cumulative weight.
func pickOp(rng *rand.Rand, m Mix) Op {
	x := rng.Float64() * m.total()
	for _, op := range Ops {
		if w := m.weight(op); x < w {
			return op
		} else {
			x -= w
		}
	}
	return OpReport
}

// execute performs one call and classifies the outcome. The latency
// clock runs from the scheduled arrival, not the actual dispatch.
func (r *runner) execute(ctx context.Context, c call, oc *opCounters) {
	var req *http.Request
	var err error
	if c.body != nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.url, nil)
	}
	if err != nil {
		r.count(oc, func(o *opCounters) { o.netErrors++ })
		return
	}
	if c.apikey != "" {
		req.Header.Set("X-API-Key", c.apikey)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		oc.latency.Observe(time.Since(c.sched).Microseconds())
		r.count(oc, func(o *opCounters) { o.netErrors++ })
		return
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	oc.latency.Observe(time.Since(c.sched).Microseconds())
	if rerr != nil {
		r.count(oc, func(o *opCounters) { o.netErrors++ })
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		diverged := r.checkDivergence(c, resp, body)
		r.count(oc, func(o *opCounters) {
			o.ok++
			if diverged {
				o.divergent++
			}
		})
		return
	case resp.StatusCode == http.StatusTooManyRequests:
		r.count(oc, func(o *opCounters) { o.throttled++ })
	case resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden:
		r.count(oc, func(o *opCounters) { o.unauthorized++ })
	case resp.StatusCode >= 500:
		r.count(oc, func(o *opCounters) { o.serverErrors++ })
	default:
		r.count(oc, func(o *opCounters) { o.clientErrors++ })
	}
	// Every non-200 the API family emits is a structured error envelope
	// (httpapi); a plain-text or ad-hoc body is a contract leak, counted
	// alongside the status-class outcome the way divergence rides on 200s.
	if _, ok := httpapi.DecodeError(body); !ok {
		r.count(oc, func(o *opCounters) { o.nonEnvelope++ })
	}
}

func (r *runner) count(oc *opCounters, f func(*opCounters)) {
	r.mu.Lock()
	f(oc)
	r.mu.Unlock()
}

// checkDivergence enforces the byte-identity contract on report,
// compare, and predict bodies: two 200s for the same URL at the same
// dataset generation must be byte-identical no matter which replica
// answered. The generation keys the check, so legitimate re-ingest churn
// never counts as divergence — only replicas disagreeing about the same
// generation does. Reports and predicts carry it in X-Dataset-Generation;
// a compare names two datasets, so it carries one generation per side in
// its body instead.
func (r *runner) checkDivergence(c call, resp *http.Response, body []byte) bool {
	var gen string
	switch c.op {
	case OpReport, OpPredict:
		gen = resp.Header.Get("X-Dataset-Generation")
	case OpCompare:
		var doc struct {
			A, B struct {
				Generation uint64 `json:"generation"`
			}
		}
		json.Unmarshal(body, &doc) // undecodable: generations 0,0, and its bytes are still compared
		gen = fmt.Sprintf("%d,%d", doc.A.Generation, doc.B.Generation)
	}
	if gen == "" {
		return false
	}
	key := c.url + "|" + gen
	digest := sha256.Sum256(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	first, seen := r.bodies[key]
	if !seen {
		r.bodies[key] = digest
		return false
	}
	if first == digest {
		return false
	}
	if len(r.samples) < 8 {
		r.samples = append(r.samples,
			fmt.Sprintf("%s gen %s: body %x != first-seen %x", c.url, gen, digest[:6], first[:6]))
	}
	return true
}
