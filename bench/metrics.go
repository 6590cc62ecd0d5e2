package main

// The four workloads. Names are fixed: later issues refer to them.
const (
	wBatchRow      = "batch-row"
	wBatchColumnar = "batch-columnar"
	wServeHot      = "serve-hot"
	wServeChurn    = "serve-churn"
)

var workloadNames = []string{wBatchRow, wBatchColumnar, wServeHot, wServeChurn}

func isBatch(w string) bool { return w == wBatchRow || w == wBatchColumnar }

// metricDef is one row of the benchmark's metric table: the name a result
// is printed under, its unit and direction, and for end-to-end metrics the
// share of the parent's median it may worsen by before a change counts as
// a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Only lists the workloads the metric exists on; nil means all four.
	// A metric with Only set cannot be in BENCHMARK.json's end_to_end
	// list (the contract wants every end-to-end metric on every
	// workload), so it is printed, stored in result files and judged by
	// -compare, but the driver does not see it.
	Only []string
}

func (m metricDef) on(workload string) bool {
	if m.Only == nil {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the system sees. Measured with tracing off,
// and reported as measured. The bounds on clock time are the contract's
// widest, 25%: the sizing sandbox's speed drifts by 15–20% for minutes at a
// time, and ten raw runs of one commit spread by up to 21% (README, "Noise").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "answer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "answer_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_answer", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "stored_bytes_per_log", Unit: "B", Better: "lower", Bound: 0.06},
	{Name: "ingest_visible_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Only: []string{wServeChurn}},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25, Only: []string{wServeChurn}},
	{Name: "convert_logs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: []string{wBatchColumnar}},
	// fail_ratio is 0 on a healthy run, so a relative bound means nothing:
	// -compare treats any increase as worse.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Only: workloadNames},
}

// tailPercentile is the highest percentile with at least ten samples
// beyond it at the benchmark's run length: the batch workloads complete a
// hundred-odd answers per run, the service workloads tens of thousands.
func tailPercentile(workload string) float64 {
	if isBatch(workload) {
		return 0.90
	}
	return 0.99
}

// perLayer lists the single-layer metrics of the traced run, named
// <package>.<metric>. A metric reads 0 on a workload that bypasses its
// layer: the layer did no work there, which is what the workload is for.
var perLayer = []metricDef{
	{Name: "logfmt.frame_us_per_log", Unit: "us", Better: "lower"},
	{Name: "logfmt.decode_us_per_log", Unit: "us", Better: "lower"},
	{Name: "logfmt.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "logfmt.allocs_per_log", Unit: "count", Better: "lower"},
	{Name: "logfmt.self_share", Unit: "ratio", Better: "lower"},
	{Name: "colfmt.decode_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "colfmt.peek_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "colfmt.segments_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "colfmt.encode_us_per_log", Unit: "us", Better: "lower"},
	{Name: "colfmt.bytes_per_log", Unit: "B", Better: "lower"},
	{Name: "colfmt.self_share", Unit: "ratio", Better: "lower"},
	{Name: "analysis.addlog_ns_per_log", Unit: "ns", Better: "lower"},
	{Name: "analysis.foldbatch_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "analysis.merge_us", Unit: "us", Better: "lower"},
	{Name: "analysis.report_us", Unit: "us", Better: "lower"},
	{Name: "analysis.clone_us", Unit: "us", Better: "lower"},
	{Name: "analysis.state_us", Unit: "us", Better: "lower"},
	{Name: "analysis.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.coordinator_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.worker_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.ingest_logs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.convert_ms", Unit: "ms", Better: "lower"},
	{Name: "core.convert_logs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.narrow_totals_us", Unit: "us", Better: "lower"},
	{Name: "core.narrow_tail_us", Unit: "us", Better: "lower"},
	{Name: "core.narrow_allocs", Unit: "count", Better: "lower"},
	{Name: "report.render_us.json", Unit: "us", Better: "lower"},
	{Name: "report.render_us.text", Unit: "us", Better: "lower"},
	{Name: "report.render_us.csv", Unit: "us", Better: "lower"},
	{Name: "report.render_us.section_p50", Unit: "us", Better: "lower"},
	{Name: "predict.mine_us", Unit: "us", Better: "lower"},
	{Name: "predict.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "predict.scan_segments_pruned", Unit: "count", Better: "higher"},
	{Name: "httpapi.query_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "httpapi.error_write_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_put_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.cache_get_ns_contended", Unit: "ns", Better: "lower"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.miss_ingest_self_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.throttled", Unit: "count", Better: "lower"},
	{Name: "serve.store_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lake_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lake_compactions", Unit: "count", Better: "higher"},
	{Name: "serve.lake_bytes_per_gen", Unit: "B", Better: "lower"},
	{Name: "serve.lake_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "cluster.hop_tax_us", Unit: "us", Better: "lower"},
	{Name: "cluster.hop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.hop_ratio_tail", Unit: "ratio", Better: "lower"},
	{Name: "cluster.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.ring_owners_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.keyring_check_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.attempts_per_request", Unit: "ratio", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.ingest_fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.datasets_gather_us", Unit: "us", Better: "lower"},
	{Name: "net.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.floor_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.self_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.budget_sum_ratio", Unit: "ratio", Better: "higher"},
}

// contractEndToEnd is the end-to-end list BENCHMARK.json may carry: the
// metrics that exist, and are never 0, on every workload.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Only == nil {
			out = append(out, m)
		}
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// boundsFrom returns each end-to-end metric's bound: BENCHMARK.json's
// where it lists the metric, the table's for the workload-specific rest.
func boundsFrom(bf *benchmarkFile) map[string]float64 {
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range bf.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	return bounds
}
