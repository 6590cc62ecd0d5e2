package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"iolayers/internal/analysis"
	"iolayers/internal/checkpoint"
	"iolayers/internal/cluster"
	"iolayers/internal/core"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim"
	"iolayers/internal/obsv"
	"iolayers/internal/predict"
	"iolayers/internal/report"
	"iolayers/internal/serve"
	"iolayers/internal/stats"
)

// The probes time one layer's named public call from outside, in the
// traced invocation. Iteration counts are fixed by the sizing, not by a
// clock, so a probe does the same work on both sides of a comparison.

// probeReport times report.Render per format on rep, and the median
// section.
func probeReport(r *runResult, rep *analysis.Report, iters int) {
	render := func(f report.Format, section string) time.Duration {
		return timeN(iters, func() { report.RenderString(rep, report.Options{Format: f, Section: section}) })
	}
	r.set("report.render_us.json", us(render(report.FormatJSON, "")))
	r.set("report.render_us.text", us(render(report.FormatText, "")))
	r.set("report.render_us.csv", us(render(report.FormatCSV, "")))
	var sections []float64
	for _, s := range report.SectionNames() {
		if s != "faults" {
			sections = append(sections, us(render(report.FormatJSON, s)))
		}
	}
	r.setN("report.render_us.section_p50", stats.Quantile(sections, 0.5), len(sections))
}

// probeAggregator times what an ingest pays besides decoding and folding
// — Clone, Merge, Report, State — and the predict miner, on an aggregator
// fill has folded the workload's data into.
func probeAggregator(r *runResult, sys *iosim.System, fill func(*analysis.Aggregator) error, iters int) error {
	a, b := analysis.NewAggregator(sys), analysis.NewAggregator(sys)
	if err := fill(a); err != nil {
		return err
	}
	if err := fill(b); err != nil {
		return err
	}
	r.set("analysis.clone_us", us(timeN(iters, func() { a.Clone() })))
	r.set("analysis.state_us", us(timeN(iters, func() { a.State() })))
	var merge time.Duration
	for i := 0; i < iters; i++ {
		c := a.Clone()
		t0 := time.Now()
		c.Merge(b)
		merge += time.Since(t0)
	}
	r.set("analysis.merge_us", perOp(merge, iters, time.Microsecond))
	if _, ok := r.Metrics["analysis.report_us"]; !ok {
		r.set("analysis.report_us", us(timeN(iters, func() { a.Report() })))
	}
	rep := a.Report()
	r.set("predict.mine_us", us(timeN(iters, func() { predict.FromReport(rep).WithReplay(sys, rep) })))
	return nil
}

// discardWriter is the smallest http.ResponseWriter.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// probeHTTPAPI times the parameter parse every query pays and the error
// envelope write.
func probeHTTPAPI(r *runResult, iters int) {
	req := &http.Request{URL: &url.URL{Path: "/v1/report/s0", RawQuery: "format=json&section=table2"}}
	r.set("httpapi.query_parse_ns", float64(timeN(iters*50, func() { httpapi.Query(req, "format", "section") })))
	r.set("httpapi.error_write_ns", float64(timeN(iters*50, func() {
		httpapi.WriteError(&discardWriter{h: http.Header{}}, http.StatusNotFound, httpapi.CodeNotFound, `no dataset "x"`)
	})))
}

// probeCache times the render cache at serve-hot's working set: as many
// entries as there are questions, each about a section body's size, well
// inside the default bound.
func probeCache(r *runResult, entries, callers, iters int) {
	c := serve.NewCache(0)
	keys := make([]string, entries)
	body := make([]byte, 1500)
	for i := range keys {
		keys[i] = fmt.Sprintf("report|s%d|1|section%d|json", i%8, i)
		c.Put(keys[i], "application/json", body)
	}
	n := iters * 250
	i := 0
	r.set("serve.cache_get_ns", float64(timeN(n, func() { c.Get(keys[i%entries]); i++ })))
	r.set("serve.cache_put_ns", float64(timeN(n, func() { c.Put(keys[i%entries], "application/json", body); i++ })))
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.Get(keys[(i+g*7)%entries])
			}
		}(g)
	}
	wg.Wait()
	r.set("serve.cache_get_ns_contended", float64(time.Since(start))/float64(n))
}

// probeCluster times the router's per-request pure functions.
func probeCluster(r *runResult, replicas []string, iters int) error {
	ring, err := cluster.NewRing(replicas, 0)
	if err != nil {
		return err
	}
	i := 0
	names := []string{"s0", "s1", "s2", "s3", "c0", "c1", "c2", "c3"}
	r.set("cluster.ring_owners_ns", float64(timeN(iters*50, func() { ring.Owners(names[i%8], replication); i++ })))
	kr := cluster.NewKeyring(nil)
	if err := kr.Add(apiKeys[0], cluster.Tenant{Name: "t", Rate: tenantRate, Burst: tenantRate}); err != nil {
		return err
	}
	r.set("cluster.keyring_check_ns", float64(timeN(iters*50, func() { kr.Check(apiKeys[0]) })))
	return nil
}

// probeHops sends the same questions through the router and straight to
// their primary owner, alternating, in one run: the difference is the
// routing tax and the quotient ROADMAP's ratio gate. It also takes the
// floors under every service number: a bare loopback round trip and the
// generator against a handler that does nothing.
func (e *svcEnv) probeHops(ctx context.Context, o options, r *runResult, iters int) error {
	c := newCaller(e, 0, o)
	var routed, direct []int64
	n := iters * 5
	for i := 0; i < n; i++ {
		ds := i % len(e.datasets)
		id := e.reportIdx[ds][i%len(e.reportIdx[ds])]
		// alternate which side goes first, so neither always finds the
		// entry the other just cached
		order := []string{"", e.owners(ds)[0]}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, via := range order {
			before := len(c.lat)
			if !c.read(ctx, id, via) {
				return fmt.Errorf("hop probe: %s failed", e.urls[id].path)
			}
			if via == "" {
				routed = append(routed, c.lat[before])
			} else {
				direct = append(direct, c.lat[before])
			}
		}
	}
	if wrong := e.verifyStatic(c.obs); wrong > 0 {
		r.Failed += wrong
	}
	r.Attempted += 2 * n
	rp50, dp50 := percentile(routed, 0.5), percentile(direct, 0.5)
	r.setN("cluster.hop_tax_us", (rp50-dp50)/1e3, n)
	if dp50 > 0 {
		r.set("cluster.hop_ratio", rp50/dp50)
	}
	if d99 := percentile(direct, 0.99); d99 > 0 {
		r.set("cluster.hop_ratio_tail", percentile(routed, 0.99)/d99)
	}

	var gather []int64
	for i := 0; i < n/5; i++ {
		before := len(c.lat)
		if !c.read(ctx, e.datasetsID, "") {
			return fmt.Errorf("hop probe: /v1/datasets failed")
		}
		gather = append(gather, c.lat[before])
	}
	r.setN("cluster.datasets_gather_us", percentile(gather, 0.5)/1e3, len(gather))

	timeGets := func(target string) ([]int64, error) {
		var lat []int64
		for i := 0; i < n; i++ {
			resp, d, err := c.do(ctx, http.MethodGet, target, nil)
			if err != nil || resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("GET %s: %v", target, err)
			}
			lat = append(lat, int64(d))
		}
		return lat, nil
	}
	lat, err := timeGets("http://" + e.replicas[0].name + "/healthz")
	if err != nil {
		return err
	}
	r.setN("net.loopback_rtt_us", percentile(lat, 0.5)/1e3, len(lat))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	noop := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	go noop.Serve(ln)
	defer noop.Close()
	if lat, err = timeGets("http://" + ln.Addr().String() + "/"); err != nil {
		return err
	}
	r.setN("loadgen.floor_us", percentile(lat, 0.5)/1e3, len(lat))
	return nil
}

// verifyStatic checks observations made while no ingest is running
// against the datasets' current reference state, without advancing it.
func (e *svcEnv) verifyStatic(obs map[obsKey]obsVal) (wrong int) {
	reports := map[int]*analysis.Report{}
	for k, v := range obs {
		u := e.urls[k.url]
		if u.kind != kReport && u.kind != kPredict {
			continue
		}
		d := e.datasets[u.ds]
		if reports[u.ds] == nil {
			reports[u.ds] = d.ref.Report()
		}
		gen := uint64(len(d.ingested) + 1)
		ref, err := reference(u, d, gen, reports[u.ds])
		if err != nil || uint64(k.gens[0]) != gen || hashBody(ref) != v.hash {
			wrong += v.n
		}
	}
	return wrong
}

// probeLake times the write path under serve-churn from outside:
// Store.Ingest of one fixture log without a lake and with one (the
// difference is the commit: segment write, journal append, both fsync'd
// as the program does it), one journal append alone, and recovery of the
// probe lake. Counts are fixed, so the lake's size per generation is
// exact.
func (e *svcEnv) probeLake(ctx context.Context, r *runResult, iters int) error {
	d := e.datasets[0]
	n := max(iters/8, 2*serve.DefaultCompactEvery)
	ingest := func(store *serve.Store) (time.Duration, error) {
		if _, _, err := store.Ingest(ctx, d.name, d.sys, d.dir, core.IngestOptions{Workers: e.callers}); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := store.Ingest(ctx, d.name, d.sys, d.files[i%len(d.files)], core.IngestOptions{Workers: e.callers}); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}
	bare, err := ingest(serve.NewStore())
	if err != nil {
		return err
	}
	dir := filepath.Join(e.dir, "probe-lake")
	metrics := obsv.New()
	lake, err := serve.OpenLake(serve.LakeConfig{Dir: dir, Metrics: metrics})
	if err != nil {
		return err
	}
	durable, err := ingest(serve.NewStoreAttached(lake))
	lake.Close()
	if err != nil {
		return err
	}
	r.setN("serve.store_ingest_ms", ms(bare), n)
	r.setN("serve.lake_commit_ms", ms(durable-bare), n)
	r.set("serve.lake_bytes_per_gen", float64(dirBytes(dir))/float64(n+1))

	start := time.Now()
	if lake, err = serve.OpenLake(serve.LakeConfig{Dir: dir}); err != nil {
		return err
	}
	_, err = serve.NewStoreWithLake(lake)
	r.set("serve.lake_recover_ms", ms(time.Since(start)))
	lake.Close()
	if err != nil {
		return err
	}

	j, err := checkpoint.OpenJournal(filepath.Join(e.dir, "probe-journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	rec := struct {
		Dataset string
		Gen     uint64
		Sources []string
	}{d.name, 1, []string{d.dir}}
	var aerr error
	r.setN("checkpoint.journal_append_us", us(timeN(n, func() {
		if err := j.Append(&rec); err != nil {
			aerr = err
		}
	})), n)
	return aerr
}

// spanMetrics derives the service per-layer figures from the traced
// replay's spans.
func spanMetrics(r *runResult, spans []span) {
	rows, _, _ := budget(spans)
	var sum float64
	for _, row := range rows {
		sum += row.Share
	}
	r.set("trace.budget_sum_ratio", sum)
	r.set("loadgen.self_share", shareOf(rows, "request"))
	r.set("cluster.self_share", shareOf(rows, "cluster."))
	r.set("serve.handler_self_share", shareOf(rows, "serve.handler"))
	r.set("serve.miss_ingest_self_share", shareOf(rows, "serve.handler/miss", "serve.handler/ingest"))

	self := selfTimes(spans)
	var hit, miss time.Duration
	var handlerSelf float64
	var hits, misses, handlers int
	// per op: the first request span (the POST, for an ingest) and the
	// slowest owner's ingest handler
	type opTimes struct{ request, slowest int64 }
	ingests := map[int]*opTimes{}
	for i, s := range spans {
		switch s.Name {
		case "serve.handler/hit":
			hit += time.Duration(s.dur())
			hits++
		case "serve.handler/miss":
			miss += time.Duration(s.dur())
			misses++
		case "cluster.handler":
			handlerSelf += self[i]
			handlers++
		case "serve.handler/ingest":
			ot := ingests[s.Op]
			if ot == nil {
				ot = &opTimes{}
				ingests[s.Op] = ot
			}
			ot.slowest = max(ot.slowest, s.dur())
		}
	}
	for _, s := range spans {
		if ot := ingests[s.Op]; ot != nil && s.Name == "request" && ot.request == 0 {
			ot.request = s.dur()
		}
	}
	r.setN("serve.handler_hit_us", perOp(hit, hits, time.Microsecond), hits)
	r.setN("serve.handler_miss_us", perOp(miss, misses, time.Microsecond), misses)
	r.setN("cluster.handler_self_us", perOp(time.Duration(handlerSelf), handlers, time.Microsecond), handlers)
	if len(ingests) > 0 {
		var fanout []float64
		for _, ot := range ingests {
			fanout = append(fanout, float64(ot.request-ot.slowest)/1e6)
		}
		r.setN("cluster.ingest_fanout_ms", stats.Quantile(fanout, 0.5), len(fanout))
	}
}
