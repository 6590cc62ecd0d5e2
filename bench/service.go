package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iolayers/internal/analysis"
)

// bodySeed keys the in-process body hash shared by the observations and
// the references.
var bodySeed = maphash.MakeSeed()

func hashBody(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// obsKey names one legal content: a question and the dataset generations
// its answer was rendered from (one for report and predict, two for
// compare, eight for the datasets listing).
type obsKey struct {
	url  int
	gens [8]uint32
}

type obsVal struct {
	hash uint64
	n    int
}

// caller is one closed-loop client: it sends its next request when the
// previous reply is fully read, and judges every reply on arrival.
type caller struct {
	env  *svcEnv
	id   int
	key  string
	flip int
	buf  bytes.Buffer

	lat       []int64
	ingestLat []int64
	obs       map[obsKey]obsVal
	answers   int
	ingests   int
	failed    int
	hits      int
	misses    int
	attempts  int
	relayed   int
	throttled int
	failovers int
}

func newCaller(e *svcEnv, id int, o options) *caller {
	c := &caller{env: e, id: id, key: apiKeys[id%len(apiKeys)], flip: -1, obs: map[obsKey]obsVal{}}
	if id == 0 {
		c.flip = o.flip
	}
	return c
}

// do sends one request and reads the whole reply into c.buf.
func (c *caller) do(ctx context.Context, method, url string, body []byte) (*http.Response, time.Duration, error) {
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	} else {
		req, err = http.NewRequestWithContext(ctx, method, url, nil)
	}
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-API-Key", c.key)
	start := time.Now()
	resp, err := c.env.client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, time.Since(start), err
}

// noteCache tallies the relayed X-Cache header.
func (c *caller) noteCache(resp *http.Response) {
	switch resp.Header.Get("X-Cache") {
	case "hit":
		c.hits++
	case "miss":
		c.misses++
	}
}

// scanGens extracts every "generation": N from a JSON body, in order.
func scanGens(body []byte, gens *[8]uint32) {
	marker := []byte(`"generation": `)
	for i := 0; i < len(gens); i++ {
		at := bytes.Index(body, marker)
		if at < 0 {
			return
		}
		body = body[at+len(marker):]
		var v uint32
		for len(body) > 0 && body[0] >= '0' && body[0] <= '9' {
			v = v*10 + uint32(body[0]-'0')
			body = body[1:]
		}
		gens[i] = v
	}
}

// read asks question id through the router (or straight at a replica when
// direct names one) and reports whether the reply was a 200 consistent
// with every earlier reply for the same (question, generations). Whether
// it is also the right content is settled after the run, against the
// reference.
func (c *caller) read(ctx context.Context, id int, direct string) bool {
	u := c.env.urls[id]
	base := c.env.base
	if direct != "" {
		base = "http://" + direct
	}
	t := c.env.tracer
	start := time.Now()
	resp, d, err := c.do(ctx, http.MethodGet, base+u.path, nil)
	t.add("request", start, start.Add(d), "")
	c.answers++
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil && resp.StatusCode == http.StatusTooManyRequests {
			c.throttled++
		}
		c.failed++
		return false
	}
	body := c.buf.Bytes()
	if c.flip == c.answers-1 && len(body) > 0 {
		body[len(body)/2] ^= 1
	}
	key := obsKey{url: id}
	switch u.kind {
	case kReport, kPredict:
		g, err := strconv.ParseUint(resp.Header.Get("X-Dataset-Generation"), 10, 32)
		if err != nil {
			c.failed++
			return false
		}
		key.gens[0] = uint32(g)
		c.noteCache(resp)
	default:
		scanGens(body, &key.gens)
	}
	if a, err := strconv.Atoi(resp.Header.Get("X-Io-Attempts")); err == nil {
		c.attempts += a
		c.relayed++
		if a > 1 {
			c.failovers++
		}
	}
	sum := hashBody(body)
	if seen, ok := c.obs[key]; ok {
		if seen.hash != sum {
			c.failed++
			return false
		}
		c.obs[key] = obsVal{hash: sum, n: seen.n + 1}
	} else {
		c.obs[key] = obsVal{hash: sum, n: 1}
	}
	c.lat = append(c.lat, int64(d))
	return true
}

// ingest folds one fixture log into a dataset through the router's rf=2
// fan-out, then reads the dataset back through the router until the new
// generation shows. It returns send-to-visible time.
func (c *caller) ingest(ctx context.Context, op ingestOp) (time.Duration, error) {
	e := c.env
	d := e.datasets[op.ds]
	body, _ := json.Marshal(map[string]string{"dataset": d.name, "system": d.system, "source": d.files[op.log]})
	t := e.tracer
	start := time.Now()
	resp, rtt, err := c.do(ctx, http.MethodPost, e.base+"/v1/ingest", body)
	t.add("request", start, start.Add(rtt), "")
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest into %s: %s: %s", d.name, resp.Status, c.buf.String())
	}
	var doc struct {
		Replicas []struct {
			Replica    string `json:"replica"`
			Generation uint64 `json:"generation"`
			Parsed     int    `json:"parsed"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &doc); err != nil {
		return 0, err
	}
	want := uint64(len(d.ingested) + 2)
	if len(doc.Replicas) != replication {
		return 0, fmt.Errorf("ingest into %s landed on %d replicas, want %d", d.name, len(doc.Replicas), replication)
	}
	for _, row := range doc.Replicas {
		if row.Generation != want || row.Parsed != 1 {
			return 0, fmt.Errorf("ingest into %s: replica %s at generation %d (parsed %d), want %d",
				d.name, row.Replica, row.Generation, row.Parsed, want)
		}
		for _, rp := range e.replicas {
			if rp.name == row.Replica {
				rp.ackGen[op.ds] = row.Generation
			}
		}
	}
	d.ingested = append(d.ingested, op.log)
	e.routed++
	probe := e.base + "/v1/report/" + d.name + "?format=text&section=table2"
	for tries := 0; ; tries++ {
		begin := time.Now()
		resp, rtt, err := c.do(ctx, http.MethodGet, probe, nil)
		t.add("request", begin, begin.Add(rtt), "")
		if err != nil {
			return 0, err
		}
		c.noteCache(resp)
		if g, _ := strconv.ParseUint(resp.Header.Get("X-Dataset-Generation"), 10, 64); g >= want {
			return time.Since(start), nil
		}
		if tries == 100 {
			return 0, fmt.Errorf("generation %d of %s never became visible", want, d.name)
		}
	}
}

// nextIngest issues the next ingest of the list and books it. Only one
// caller at a time ingests — caller 0 during a pass, the top-up after it —
// so generation g of a dataset has exactly one legal content, and the lakes
// are still when the storedAt-th ingest has been acknowledged: that is
// where their size is taken.
func (c *caller) nextIngest(ctx context.Context, ops *opList) {
	e := c.env
	d, err := c.ingest(ctx, ops.ingests[e.listed%len(ops.ingests)])
	e.listed++
	c.ingests++
	if err != nil {
		c.failed++
	} else {
		c.ingestLat = append(c.ingestLat, int64(d))
	}
	if e.routed == e.storedAt {
		e.lakeBytes = 0
		for _, rp := range e.replicas {
			e.lakeBytes += dirBytes(rp.lakeDir)
		}
	}
}

// topUp issues, untimed, the ingests a run left short of storedAt or of
// the same point in a later compaction cycle. However fast the box ran,
// stored_bytes_per_log is then the lakes' size at one point of one ingest
// sequence, and the recovery check that follows rebuilds lakes that hold a
// base and 14 deltas per dataset — not whatever the clock left, which took
// anything from 4 to 13 ms to recover.
func (e *svcEnv) topUp(ctx context.Context, o options, ops *opList, t *tally) {
	c := newCaller(e, 0, o)
	c.flip = -1
	cycle := compactCycle * len(e.datasets)
	for e.churn && c.failed == 0 && (e.routed < e.storedAt || (e.routed-e.storedAt)%cycle != 0) {
		c.nextIngest(ctx, ops)
	}
	t.ingests += c.ingests
	t.failed += c.failed
}

// runCallers drives the closed loop until the deadline (or, with -ops,
// for that many ops): every caller takes the next question off the
// shared list, and on serve-churn caller 0 also issues the next ingest
// whenever fewer than one op in ingestPerOps has been one, in list order.
func (e *svcEnv) runCallers(ctx context.Context, o options, ops *opList, callers int, deadline time.Time) []*caller {
	var cursor, done atomic.Int64
	cs := make([]*caller, callers)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = newCaller(e, i, o)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for {
				if !o.more(int(done.Load()), deadline) {
					return
				}
				if e.tracer != nil {
					e.tracer.op.Store(done.Load())
				}
				if c.id == 0 && len(ops.ingests) > 0 && int64(c.ingests+1)*ingestPerOps <= done.Load() {
					c.nextIngest(ctx, ops)
					done.Add(1)
					continue
				}
				n := cursor.Add(1) - 1
				c.read(ctx, ops.reads[int(n)%len(ops.reads)], "")
				done.Add(1)
			}
		}(cs[i])
	}
	wg.Wait()
	return cs
}

// tally merges the callers' books.
type tally struct {
	lat, ingestLat           []int64
	obs                      map[obsKey]obsVal
	answers, ingests, failed int
	hits, misses             int
	attempts                 int
	relayed                  int
	throttled                int
	failovers                int
}

func merge(cs []*caller) *tally {
	t := &tally{obs: map[obsKey]obsVal{}}
	for _, c := range cs {
		t.lat = append(t.lat, c.lat...)
		t.ingestLat = append(t.ingestLat, c.ingestLat...)
		t.answers += c.answers
		t.ingests += c.ingests
		t.failed += c.failed
		t.hits += c.hits
		t.misses += c.misses
		t.attempts += c.attempts
		t.relayed += c.relayed
		t.throttled += c.throttled
		t.failovers += c.failovers
		t.absorb(c.obs)
	}
	return t
}

// absorb adds one book of observations to the tally's.
func (t *tally) absorb(obs map[obsKey]obsVal) {
	for k, v := range obs {
		if seen, ok := t.obs[k]; ok {
			if seen.hash != v.hash {
				// different bytes for the same (question, generations):
				// every one of them is suspect
				t.failed += v.n
				continue
			}
			v.n += seen.n
		}
		t.obs[k] = v
	}
}

func (e *svcEnv) run(ctx context.Context, o options, r *runResult) error {
	ops := e.genOps(o)
	r.OpDigest = ops.digest
	if o.trace {
		return e.runTraced(ctx, o, ops, r)
	}
	return e.runTimed(ctx, o, ops, r)
}

// runTimed is the timed service run.
func (e *svcEnv) runTimed(ctx context.Context, o options, ops *opList, r *runResult) error {
	m := startMeter()
	cs := e.runCallers(ctx, o, ops, o.callers, m.start.Add(time.Duration(o.seconds*float64(time.Second))))
	m.finish()
	t := merge(cs)
	e.topUp(ctx, o, ops, t)

	throttled := e.replicaCounter("serve.throttled") + e.routerM.Counter("cluster.ratelimited").Value()
	if throttled > 0 {
		r.note("%d requests were throttled; the buckets and MaxInFlight are sized so none should be", throttled)
		t.failed += int(throttled)
	}
	wrong := e.verify(t.obs)
	r.Attempted = t.answers + t.ingests
	r.Failed = t.failed + wrong
	m.answerMetrics(r, t.lat)
	r.set("stored_bytes_per_log", e.storedBytesPerLog())
	if e.churn {
		r.setN("ingest_visible_p50_ms", percentile(t.ingestLat, 0.5)/1e6, len(t.ingestLat))
		r.note("cache hit ratio %.3f over %d cacheable answers; %d ingests; %d lake compactions",
			ratio(t.hits, t.hits+t.misses), t.hits+t.misses, len(t.ingestLat), e.replicaCounter("serve.lake.compactions"))
		if err := e.checkRecovery(r, "recover_ms"); err != nil {
			return err
		}
	} else {
		r.note("cache hit ratio %.4f over %d cacheable answers", ratio(t.hits, t.hits+t.misses), t.hits+t.misses)
	}
	if t.failovers > 0 {
		r.note("%d answers needed a second owner (attempts per request %.4f)", t.failovers, ratio(t.attempts, t.relayed))
	}
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced replays a prefix of the op list twice with one caller — spans
// off, then on, same ops — checks every reply both passes saw, derives the
// per-layer figures from the spans, and then runs the probes.
func (e *svcEnv) runTraced(ctx context.Context, o options, ops *opList, r *runResult) error {
	t := e.tracer
	slice := time.Duration(o.seconds * float64(time.Second) / 4)
	pass := func(on bool) (*tally, float64) {
		t.on.Store(on)
		hits0 := e.replicaCounter("serve.cache.hits") + e.replicaCounter("serve.cache.misses")
		start := time.Now()
		tl := merge(e.runCallers(ctx, o, ops, 1, start.Add(slice)))
		rate := float64(len(tl.lat)) / time.Since(start).Seconds()
		t.on.Store(false)
		// the relayed X-Cache header against the replicas' own counters
		if counted := e.replicaCounter("serve.cache.hits") + e.replicaCounter("serve.cache.misses") - hits0; counted != int64(tl.hits+tl.misses) {
			r.note("X-Cache saw %d cacheable answers, the replicas' counters %d", tl.hits+tl.misses, counted)
			tl.failed++
		}
		return tl, rate
	}
	plain, plainRate := pass(false)
	traced, tracedRate := pass(true)
	if plainRate > 0 {
		r.set("trace.overhead_ratio", tracedRate/plainRate)
	}
	both := merge(nil)
	e.topUp(ctx, o, ops, both)
	for _, tl := range []*tally{plain, traced} {
		both.absorb(tl.obs)
		both.answers += tl.answers
		both.ingests += tl.ingests
		both.failed += tl.failed
	}
	r.Attempted = both.answers + both.ingests
	r.Failed = both.failed + e.verify(both.obs)

	r.spans = t.link()
	spanMetrics(r, r.spans)
	r.set("stored_bytes_per_log", e.storedBytesPerLog())
	r.set("serve.cache_hit_ratio", ratio(traced.hits, traced.hits+traced.misses))
	r.set("cluster.attempts_per_request", ratio(traced.attempts, traced.relayed))
	r.set("cluster.failovers", float64(e.routerM.Counter("cluster.failovers").Value()))
	r.set("serve.throttled", float64(e.replicaCounter("serve.throttled")))
	if e.churn {
		r.setN("serve.ingest_visible_p50_ms", percentile(traced.ingestLat, 0.5)/1e6, len(traced.ingestLat))
		r.set("serve.lake_compactions", float64(e.replicaCounter("serve.lake.compactions")))
	}

	iters := o.size().probeIters
	if err := e.probeHops(ctx, o, r, iters); err != nil {
		return err
	}
	probeHTTPAPI(r, iters)
	probeCache(r, len(e.urls), o.callers, iters)
	var names []string
	for _, rp := range e.replicas {
		names = append(names, rp.name)
	}
	if err := probeCluster(r, names, iters); err != nil {
		return err
	}
	d := e.datasets[0]
	probeReport(r, d.ref.Report(), iters)
	if err := probeAggregator(r, d.sys, func(agg *analysis.Aggregator) error {
		for _, log := range d.logs {
			agg.AddLog(log)
		}
		return nil
	}, iters); err != nil {
		return err
	}
	if e.churn {
		if err := e.probeLake(ctx, r, iters); err != nil {
			return err
		}
		return e.checkRecovery(r, "serve.recover_ms")
	}
	return nil
}

// checkRecovery stops the cluster, restarts every replica's store from
// its lake alone and reports the time under name — only if every dataset
// came back right; otherwise the datasets that did not are failures.
func (e *svcEnv) checkRecovery(r *runResult, name string) error {
	e.stopServing()
	d, bad, err := e.recoverLakes()
	if err != nil {
		return err
	}
	if bad > 0 {
		r.Failed += bad
		r.note("%d datasets did not recover to their acknowledged generation with identical bytes", bad)
		return nil
	}
	r.set(name, ms(d))
	return nil
}
