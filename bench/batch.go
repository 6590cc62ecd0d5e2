package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"iolayers/internal/analysis"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/predict"
	"iolayers/internal/report"
	"iolayers/internal/stats"
	"iolayers/internal/units"
	"iolayers/internal/workload"
)

// convertEvery makes every 20th batch-columnar op a conversion: the write
// side of the format the other 19 read.
const convertEvery = 20

// batchEnv is the batch analyst's world: the campaign's .dgar (and, for
// batch-columnar, its .dgc conversion) plus the reference bytes every
// answer must equal.
type batchEnv struct {
	dir      string
	sys      *iosim.System
	columnar bool
	workers  int
	dgar     string
	dgc      string
	logs     int
	dgarSize int64
	dgarSum  uint64
	dgcSize  int64
	dgcSum   uint64
	// ref is the full JSON report rendered from a Workers=1 fold of the
	// row archive: the single-node answer both batch workloads must match.
	ref []byte
}

func (e *batchEnv) close() { os.RemoveAll(e.dir) }

func fileSum(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	n, err := io.Copy(h, f)
	return h.Sum64(), n, err
}

// setupBatch converts the campaign when the workload reads columnar,
// renders the reference and warms up with one untimed answer.
func setupBatch(ctx context.Context, o options, in *inputs) (*batchEnv, error) {
	dir := in.runDir()
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	e := &batchEnv{dir: dir, sys: in.sys, columnar: o.workload == wBatchColumnar, workers: o.callers,
		dgar: in.dgar, logs: in.logs, dgarSize: in.dgarSize, dgarSum: in.dgarSum, dgc: filepath.Join(dir, "campaign.dgc")}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	rep, res, err := core.IngestArchive(ctx, e.sys, e.dgar, core.IngestOptions{Workers: 1})
	if err != nil || res.Parsed != e.logs || res.Failed != 0 {
		return nil, fmt.Errorf("reference fold: parsed %d of %d, failed %d: %v", res.Parsed, e.logs, res.Failed, err)
	}
	if e.ref, err = renderJSON(rep); err != nil {
		return nil, err
	}
	if e.columnar {
		if _, err := e.convert(ctx, e.dgc); err != nil {
			return nil, err
		}
		if e.dgcSum, e.dgcSize, err = fileSum(e.dgc); err != nil {
			return nil, err
		}
	}
	body, err := e.answer(ctx)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(body, e.ref) {
		return nil, errors.New("warm-up answer differs from the reference")
	}
	ok = true
	return e, nil
}

// writeCampaign generates the seeded Summit campaign job by job and
// writes to path, in (job, log) order, a sample of exactly corpusLogs logs
// holding close to corpusRecords file records. A raw campaign will not do
// as a benchmark input: its size is heavy-tailed in the seed (2,036 to
// 11,831 logs over seeds 100–109 at one JobScale, single logs of 5,000
// records), and the driver reads the spread across seeds as the
// benchmark's noise. A log is taken while the sample's records stay under
// the straight line from 0 to corpusRecords, so big logs get in whenever
// small ones have left room, and every seed's answer costs the same decode
// and fold work to within a percent or two. Logs go to the archive as they
// are taken and generation stops at the last, so set-up holds one job's
// logs at a time and the process's peak RSS is the run's, not the
// generator's.
func writeCampaign(ctx context.Context, o options, sys *iosim.System, path string) (int, error) {
	sz := o.size()
	for scale := sz.jobScale; scale <= 1; scale *= 2 {
		gen, err := workload.NewGenerator(workload.Profiles()[sys.Name], sys, workload.Config{Seed: o.seed, JobScale: scale, FileScale: 0.02})
		if err != nil {
			return 0, err
		}
		n, err := writeSample(ctx, gen, sz, path)
		if err != nil || n == sz.corpusLogs {
			return n, err
		}
		// too small a campaign for this seed: a bigger one of the same seed
	}
	return 0, errors.New("campaign never yielded enough logs")
}

// writeSample writes one attempt's archive and returns how many logs it
// took.
func writeSample(ctx context.Context, gen *workload.Generator, sz sizing, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		return 0, err
	}
	records := 0
	for job := 0; job < gen.Jobs() && aw.Count() < sz.corpusLogs; job++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		logs, _, err := gen.GenerateJobSafe(job)
		if err != nil {
			return 0, fmt.Errorf("generating job %d: %w", job, err)
		}
		for _, log := range logs {
			if aw.Count() == sz.corpusLogs {
				break
			}
			if n := records + len(log.Records); n*sz.corpusLogs <= sz.corpusRecords*(aw.Count()+1) {
				if err := aw.Append(log); err != nil {
					return 0, err
				}
				records = n
			}
		}
	}
	if err := aw.Close(); err != nil {
		return 0, err
	}
	return aw.Count(), f.Close()
}

func renderJSON(rep *analysis.Report) ([]byte, error) {
	var b bytes.Buffer
	if err := report.Render(&b, rep, report.Options{Format: report.FormatJSON}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// answer is one batch answer, as ioanalyze gives it: ingest the campaign
// with the worker pool (metrics off, as without -metrics) and render the
// full JSON report.
func (e *batchEnv) answer(ctx context.Context) ([]byte, error) {
	ingest, src := core.IngestArchive, e.dgar
	if e.columnar {
		ingest, src = core.IngestColumnar, e.dgc
	}
	rep, res, err := ingest(ctx, e.sys, src, core.IngestOptions{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	if res.Parsed != e.logs || res.Failed != 0 {
		return nil, fmt.Errorf("parsed %d of %d logs, %d failed", res.Parsed, e.logs, res.Failed)
	}
	return renderJSON(rep)
}

func (e *batchEnv) convert(ctx context.Context, dst string) (core.ConvertResult, error) {
	res, err := core.ConvertArchive(ctx, e.dgar, dst, core.ConvertOptions{})
	if err == nil && res.Logs != e.logs {
		err = fmt.Errorf("converted %d of %d logs", res.Logs, e.logs)
	}
	return res, err
}

// storedBytesPerLog is the at-rest size of the store the workload answers
// from, per log.
func (e *batchEnv) storedBytesPerLog() float64 {
	if e.columnar {
		return float64(e.dgcSize) / float64(e.logs)
	}
	return float64(e.dgarSize) / float64(e.logs)
}

// isConvert reports whether op i of the batch op list is a conversion.
func (e *batchEnv) isConvert(i int) bool { return e.columnar && i%convertEvery == convertEvery-1 }

// opDigest names the batch op list: the archive's bytes and the
// answer/convert pattern are all there is to it.
func (e *batchEnv) opDigest(o options) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s convert_every=%d logs=%d dgar=%016x", o.workload, convertEvery, e.logs, e.dgarSum)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (e *batchEnv) run(ctx context.Context, o options, r *runResult) error {
	r.OpDigest = e.opDigest(o)
	if o.trace {
		return e.runTraced(ctx, o, r)
	}
	return e.runTimed(ctx, o, r)
}

// runTimed answers until the deadline, checking every body against the
// reference and every conversion against the set-up's .dgc.
func (e *batchEnv) runTimed(ctx context.Context, o options, r *runResult) error {
	var lat, convLat []int64
	answers, converts, failed := 0, 0, 0
	scratch := filepath.Join(e.dir, "scratch.dgc")
	m := startMeter()
	deadline := m.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; o.more(i, deadline); i++ {
		t0 := time.Now()
		if e.isConvert(i) {
			_, err := e.convert(ctx, scratch)
			d := time.Since(t0)
			converts++
			if sum, size, serr := fileSum(scratch); err != nil || serr != nil || sum != e.dgcSum || size != e.dgcSize {
				failed++
			} else {
				convLat = append(convLat, int64(d))
			}
			continue
		}
		body, err := e.answer(ctx)
		d := time.Since(t0)
		if o.flip == answers && len(body) > 0 {
			body[len(body)/2] ^= 1
		}
		answers++
		if err != nil || !bytes.Equal(body, e.ref) {
			failed++
		} else {
			lat = append(lat, int64(d))
		}
	}
	m.finish()
	r.Attempted, r.Failed = answers+converts, failed
	m.answerMetrics(r, lat)
	r.set("stored_bytes_per_log", e.storedBytesPerLog())
	if len(convLat) > 0 {
		r.setN("convert_logs_per_s", float64(e.logs)/(percentile(convLat, 0.5)/1e9), len(convLat))
	}
	return nil
}

// tracedAnswer does one answer's work call by call on one goroutine, with
// a span around each call into a layer, and returns the rendered bytes —
// which must equal the reference, or the decomposition measured something
// other than the program.
func (e *batchEnv) tracedAnswer(t *tracer) ([]byte, error) {
	begin := time.Now()
	agg := analysis.NewAggregator(e.sys)
	var lim logfmt.DecodeLimits
	if e.columnar {
		f, err := os.Open(e.dgc)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cr, err := colfmt.NewReaderWithLimits(f, lim)
		if err != nil {
			return nil, err
		}
		for t0 := time.Now(); ; {
			raw, err := cr.NextRaw()
			t1 := time.Now()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			batch, err := colfmt.DecodeSegment(raw, colfmt.ProjectAll, lim)
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			if err := agg.FoldBatch(batch); err != nil {
				return nil, err
			}
			t3 := time.Now()
			t.add("colfmt.frame", t0, t1, "")
			t.add("colfmt.decode", t1, t2, "")
			t.add("analysis.foldbatch", t2, t3, "")
			t0 = time.Now()
		}
	} else {
		f, err := os.Open(e.dgar)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ar, err := logfmt.NewArchiveReaderWithLimits(f, lim)
		if err != nil {
			return nil, err
		}
		var br bytes.Reader
		for t0 := time.Now(); ; {
			raw, err := ar.NextRaw()
			t1 := time.Now()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			br.Reset(raw)
			log, err := logfmt.ReadWithLimits(&br, lim)
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			agg.AddLog(log)
			t3 := time.Now()
			t.add("logfmt.frame", t0, t1, "")
			t.add("logfmt.decode", t1, t2, "")
			t.add("analysis.addlog", t2, t3, "")
			t0 = time.Now()
		}
	}
	t4 := time.Now()
	rep := agg.Report()
	t5 := time.Now()
	body, err := renderJSON(rep)
	t6 := time.Now()
	t.add("analysis.report", t4, t5, "")
	t.add("report.render", t5, t6, "")
	t.add("answer", begin, t6, "")
	return body, err
}

// maxTracedSpans bounds the traced replay's memory: a row answer records
// three spans per log, a columnar one three per segment.
const maxTracedSpans = 150_000

// runTraced replays a prefix of the op list twice with one caller — spans
// on, then off — and then times the named public calls of each layer the
// workload exercises.
func (e *batchEnv) runTraced(ctx context.Context, o options, r *runResult) error {
	t := newTracer()
	slice := time.Duration(o.seconds * float64(time.Second) / 4)

	// The same decomposed pass over the same answers, spans on then off:
	// the ratio of their rates is what recording costs.
	rate := func(on bool, limit int) (float64, int) {
		t.on.Store(on)
		n, start := 0, time.Now()
		for ; n < limit && (n == 0 || !on || (o.more(n, start.Add(slice)) && t.len() < maxTracedSpans)); n++ {
			t.op.Store(int64(n))
			body, err := e.tracedAnswer(t)
			r.Attempted++
			if err != nil || !bytes.Equal(body, e.ref) {
				r.Failed++
			}
		}
		return float64(n) / time.Since(start).Seconds(), n
	}
	traced, answers := rate(true, math.MaxInt)
	plain, _ := rate(false, answers)
	if plain > 0 {
		r.set("trace.overhead_ratio", traced/plain)
	}

	r.spans = t.link()
	rows, _, _ := budget(r.spans)
	var sum float64
	for _, row := range rows {
		sum += row.Share
	}
	r.set("trace.budget_sum_ratio", sum)
	r.set("stored_bytes_per_log", e.storedBytesPerLog())
	r.set("logfmt.self_share", shareOf(rows, "logfmt."))
	r.set("colfmt.self_share", shareOf(rows, "colfmt."))
	r.set("analysis.self_share", shareOf(rows, "analysis."))

	total := map[string]int64{}
	count := map[string]int{}
	for _, s := range r.spans {
		total[s.Name] += s.dur()
		count[s.Name]++
	}
	mean := func(name string, unit time.Duration) float64 {
		return perOp(time.Duration(total[name]), count[name], unit)
	}
	if e.columnar {
		r.setN("colfmt.decode_us_per_segment", mean("colfmt.decode", time.Microsecond), count["colfmt.decode"])
		r.setN("analysis.foldbatch_us_per_segment", mean("analysis.foldbatch", time.Microsecond), count["analysis.foldbatch"])
		r.set("colfmt.bytes_per_log", float64(e.dgcSize)/float64(e.logs))
	} else {
		r.setN("logfmt.frame_us_per_log", mean("logfmt.frame", time.Microsecond), count["logfmt.frame"])
		r.setN("logfmt.decode_us_per_log", mean("logfmt.decode", time.Microsecond), count["logfmt.decode"])
		r.setN("analysis.addlog_ns_per_log", mean("analysis.addlog", time.Nanosecond), count["analysis.addlog"])
		if d := total["logfmt.decode"]; d > 0 {
			r.set("logfmt.decode_mb_per_s", float64(e.dgarSize)*float64(answers)/1e6/(float64(d)/1e9))
		}
	}
	r.setN("analysis.report_us", mean("analysis.report", time.Microsecond), count["analysis.report"])

	// The coordinator against the decomposed pass it should cost no more
	// than, and the worker pool against itself at one worker.
	wall := func(workers int) (time.Duration, *analysis.Report, error) {
		ingest, src := core.IngestArchive, e.dgar
		if e.columnar {
			ingest, src = core.IngestColumnar, e.dgc
		}
		var rep *analysis.Report
		var walls []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			var err error
			if rep, _, err = ingest(ctx, e.sys, src, core.IngestOptions{Workers: workers}); err != nil {
				return 0, nil, err
			}
			walls = append(walls, float64(time.Since(t0)))
		}
		return time.Duration(stats.Quantile(walls, 0.5)), rep, nil
	}
	one, rep, err := wall(1)
	if err != nil {
		return err
	}
	pool, _, err := wall(e.workers)
	if err != nil {
		return err
	}
	layers := total["analysis.report"]
	for _, name := range []string{"logfmt.frame", "logfmt.decode", "analysis.addlog", "colfmt.frame", "colfmt.decode", "analysis.foldbatch"} {
		layers += total[name]
	}
	if answers > 0 && layers > 0 {
		r.set("core.coordinator_overhead_ratio", float64(one)/(float64(layers)/float64(answers))-1)
	}
	r.set("core.worker_speedup", float64(one)/float64(pool))
	r.set("core.ingest_logs_per_s", float64(e.logs)/pool.Seconds())

	probeReport(r, rep, max(o.size().probeIters/20, 3))
	if err := probeAggregator(r, e.sys, func(agg *analysis.Aggregator) error {
		_, _, err := core.IngestArchive(ctx, e.sys, e.dgar, core.IngestOptions{Workers: 1, Into: agg})
		return err
	}, max(o.size().probeIters/40, 3)); err != nil {
		return err
	}
	if e.columnar {
		return e.probeColumnar(ctx, o, r)
	}
	return e.probeRow(r)
}

// probeRow measures what the spans cannot: allocations per decoded log.
func (e *batchEnv) probeRow(r *runResult) error {
	_, raws, err := e.readAll()
	if err != nil {
		return err
	}
	var br bytes.Reader
	before := mallocs()
	for _, raw := range raws {
		br.Reset(raw)
		if _, err := logfmt.ReadWithLimits(&br, logfmt.DecodeLimits{}); err != nil {
			return err
		}
	}
	r.set("logfmt.allocs_per_log", float64(mallocs()-before)/float64(len(raws)))
	return nil
}

// readAll decodes the archive once, keeping every raw entry and log.
func (e *batchEnv) readAll() ([]*darshan.Log, [][]byte, error) {
	f, err := os.Open(e.dgar)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ar, err := logfmt.NewArchiveReader(f)
	if err != nil {
		return nil, nil, err
	}
	var logs []*darshan.Log
	var raws [][]byte
	for {
		raw, err := ar.NextRaw()
		if errors.Is(err, io.EOF) {
			return logs, raws, nil
		}
		if err != nil {
			return nil, nil, err
		}
		raw = append([]byte(nil), raw...)
		log, err := logfmt.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, err
		}
		logs, raws = append(logs, log), append(raws, raw)
	}
}

// probeColumnar times the columnar format's other public calls: peek,
// encode, convert, the narrow query pair and the predict scan.
func (e *batchEnv) probeColumnar(ctx context.Context, o options, r *runResult) error {
	f, err := os.Open(e.dgc)
	if err != nil {
		return err
	}
	defer f.Close()
	cr, err := colfmt.NewReader(f)
	if err != nil {
		return err
	}
	var peek time.Duration
	segments := 0
	for {
		raw, err := cr.NextRaw()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := colfmt.PeekSegment(raw, logfmt.DecodeLimits{}); err != nil {
			return err
		}
		peek += time.Since(t0)
		segments++
	}
	r.setN("colfmt.peek_us_per_segment", perOp(peek, segments, time.Microsecond), segments)

	logs, _, err := e.readAll()
	if err != nil {
		return err
	}
	t0 := time.Now()
	w, err := colfmt.NewWriter(io.Discard, 0)
	if err != nil {
		return err
	}
	for _, log := range logs {
		if err := w.Append(log); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.setN("colfmt.encode_us_per_log", perOp(time.Since(t0), len(logs), time.Microsecond), len(logs))

	scratch := filepath.Join(e.dir, "probe.dgc")
	t0 = time.Now()
	if _, err := e.convert(ctx, scratch); err != nil {
		return err
	}
	d := time.Since(t0)
	r.set("core.convert_ms", ms(d))
	r.set("core.convert_logs_per_s", float64(e.logs)/d.Seconds())

	narrow := func(minBytes int64) (time.Duration, core.ColumnarTotals, uint64, error) {
		var tot core.ColumnarTotals
		var err error
		before := mallocs()
		if tot, err = core.QueryColumnarTotals(ctx, e.dgc, core.ColumnarQuery{MinFileBytes: minBytes}); err != nil {
			return 0, tot, 0, err
		}
		allocs := mallocs() - before
		d := timeN(max(o.size().probeIters/40, 3), func() {
			tot, err = core.QueryColumnarTotals(ctx, e.dgc, core.ColumnarQuery{MinFileBytes: minBytes})
		})
		return d, tot, allocs, err
	}
	d, _, allocs, err := narrow(0)
	if err != nil {
		return err
	}
	r.set("core.narrow_totals_us", us(d))
	r.set("core.narrow_allocs", float64(allocs))
	d, tot, _, err := narrow(int64(units.TiB) + 1)
	if err != nil {
		return err
	}
	r.set("core.narrow_tail_us", us(d))
	if n := tot.SegmentsPruned + tot.SegmentsScanned; n > 0 {
		r.set("colfmt.segments_pruned_ratio", float64(tot.SegmentsPruned)/float64(n))
	}

	// A window over the campaign's second half, so start-time stats can
	// prune the first.
	full, err := predict.ScanColumnar(ctx, e.dgc, predict.ScanOptions{})
	if err != nil {
		return err
	}
	opts := predict.ScanOptions{}
	if n := len(full.Hours); n > 1 {
		opts.From = full.Hours[n/2].Hour * 3600
	}
	var scan *predict.ScanResult
	d = timeN(3, func() { scan, err = predict.ScanColumnar(ctx, e.dgc, opts) })
	if err != nil {
		return err
	}
	r.set("predict.scan_ms", ms(d))
	r.set("predict.scan_segments_pruned", float64(scan.SegmentsPruned))
	return nil
}
