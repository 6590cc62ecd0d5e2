// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating its artifact end to end — synthesize the
// calibrated campaign, run it through the Darshan runtime against the
// simulated I/O subsystems, analyze the logs, and render the rows the paper
// reports. Run with
//
//	go test -bench=. -benchmem
//
// and pass -v to see the rendered artifacts (logged once per benchmark).
// Absolute totals scale with the benchmark campaign size; the reproduction
// targets are the ratios, orderings, and distribution shapes (DESIGN.md §5,
// EXPERIMENTS.md).
//
// The Ablation benchmarks at the bottom quantify the design choices
// DESIGN.md §6 calls out; they report modeled (simulated) seconds per
// operation via the "sim-s/op" metric alongside host wall time.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/datawarp"
	"iolayers/internal/iosim/lustre"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/probes"
	"iolayers/internal/report"
	"iolayers/internal/sched"
	"iolayers/internal/units"
	"iolayers/internal/workload"
)

// benchConfig sizes the per-iteration campaigns: big enough for stable
// shapes, small enough that every benchmark iterates in well under a second.
var benchConfig = workload.Config{Seed: 11, JobScale: 0.0005, FileScale: 0.02}

// perfConfig is larger, for the performance figures that need a populated
// shared-file sample in every (interface, direction, size-bin) cell.
var perfConfig = workload.Config{Seed: 11, JobScale: 0.002, FileScale: 0.05}

var (
	studyOnce    sync.Once
	studyReports map[string]*analysis.Report
	perfOnce     sync.Once
	perfReports  map[string]*analysis.Report
)

// study returns cached campaign reports so each benchmark times one clean
// regeneration pass over a warmed build rather than paying the shared
// campaign cost b.N times.
func study(b *testing.B) map[string]*analysis.Report {
	b.Helper()
	studyOnce.Do(func() {
		var err error
		studyReports, err = core.RunStudyContext(context.Background(), benchConfig)
		if err != nil {
			b.Fatal(err)
		}
	})
	return studyReports
}

func perfStudy(b *testing.B) map[string]*analysis.Report {
	b.Helper()
	perfOnce.Do(func() {
		var err error
		perfReports, err = core.RunStudyContext(context.Background(), perfConfig)
		if err != nil {
			b.Fatal(err)
		}
	})
	return perfReports
}

// runCampaign regenerates one system's campaign end to end; this is the
// timed body shared by the table/figure benchmarks.
func runCampaign(b *testing.B, system string, cfg workload.Config) *analysis.Report {
	b.Helper()
	campaign, err := core.NewCampaign(system, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := campaign.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// benchArtifact times the end-to-end regeneration of one artifact and logs
// the rendered result once.
func benchArtifact(b *testing.B, cfg workload.Config, render func(summit, cori *analysis.Report) string) {
	var out string
	for i := 0; i < b.N; i++ {
		summit := runCampaign(b, "Summit", cfg)
		cori := runCampaign(b, "Cori", cfg)
		out = render(summit, cori)
	}
	b.Log("\n" + out)
}

func BenchmarkTable2_CampaignSummary(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Table2(s, c)
	})
}

func BenchmarkTable3_LayerTotals(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Table3(s) + "\n" + report.Table3(c)
	})
}

func BenchmarkTable4_LargeFiles(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Table4(s) + "\n" + report.Table4(c)
	})
}

func BenchmarkTable5_JobExclusivity(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Table5(s) + "\n" + report.Table5(c)
	})
}

func BenchmarkTable6_InterfaceUsage(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Table6(s) + "\n" + report.Table6(c)
	})
}

func BenchmarkFigure3_TransferSizeCDF(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure3(s) + "\n" + report.Figure3(c)
	})
}

func BenchmarkFigure4_RequestSizeCDF(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure4(s, false) + "\n" + report.Figure4(c, false)
	})
}

func BenchmarkFigure5_LargeJobRequestCDF(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure4(s, true) + "\n" + report.Figure4(c, true)
	})
}

func BenchmarkFigure6_FileClassification(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure6(s, false) + "\n" + report.Figure6(c, false)
	})
}

func BenchmarkFigure7_DomainUsage(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure7(s) + "\n" + report.Figure7(c)
	})
}

func BenchmarkFigure8_STDIOClassification(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure6(s, true) + "\n" + report.Figure6(c, true)
	})
}

func BenchmarkFigure9_InterfaceTransferCDF(b *testing.B) {
	// Figure 9 is a Summit-only figure in the paper.
	var out string
	for i := 0; i < b.N; i++ {
		summit := runCampaign(b, "Summit", benchConfig)
		out = report.Figure9(summit)
	}
	b.Log("\n" + out)
}

func BenchmarkFigure10_STDIODomains(b *testing.B) {
	benchArtifact(b, benchConfig, func(s, c *analysis.Report) string {
		return report.Figure10(s) + "\n" + report.Figure10(c)
	})
}

func BenchmarkFigure11_SummitPerf(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		summit := runCampaign(b, "Summit", perfConfig)
		out = report.Figure11(summit)
	}
	b.Log("\n" + out)
}

func BenchmarkFigure12_CoriPerf(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		cori := runCampaign(b, "Cori", perfConfig)
		out = report.Figure11(cori)
	}
	b.Log("\n" + out)
}

// --- Component benchmarks: the pipeline stages in isolation ---

func BenchmarkGenerateJob(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Summit(), systems.NewSummit(), benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.GenerateJob(i % gen.Jobs())
	}
}

func BenchmarkAnalyzeLog(b *testing.B) {
	sys := systems.NewSummit()
	gen, err := workload.NewGenerator(workload.Summit(), sys, benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	logs := gen.GenerateJob(0)
	for len(logs) < 64 {
		logs = append(logs, gen.GenerateJob(len(logs)%gen.Jobs())...)
	}
	agg := analysis.NewAggregator(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.AddLog(logs[i%len(logs)])
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// reportSimSeconds attaches the modeled duration as a custom metric.
func reportSimSeconds(b *testing.B, total float64) {
	b.ReportMetric(total/float64(b.N), "sim-s/op")
}

// A1: Lustre stripe count for a large shared write (paper §5 future work).
func BenchmarkAblation_LustreStriping(b *testing.B) {
	for _, stripes := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			cfg := lustre.CoriScratch()
			cfg.Variability = iosim.Variability{}
			fs := lustre.New(cfg)
			path := "/global/cscratch1/ablate/wide.bin"
			fs.SetLayout(path, lustre.Layout{
				StripeSize: units.MiB, StripeCount: stripes, StartOST: 0,
			})
			r := rand.New(rand.NewPCG(1, 1))
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim += fs.Transfer(path, iosim.Write, 10*units.GiB, 256, r)
			}
			reportSimSeconds(b, sim)
		})
	}
}

// A2: STDIO buffer size vs delivered duration for a 1 GiB streamed read.
func BenchmarkAblation_STDIOBuffer(b *testing.B) {
	sys := systems.NewSummit()
	for _, buf := range []units.ByteSize{4 * units.KiB, 64 * units.KiB, units.MiB} {
		b.Run(fmt.Sprintf("buffer=%s", buf), func(b *testing.B) {
			cfg := iosim.DefaultSTDIO()
			cfg.BufferSize = buf
			r := rand.New(rand.NewPCG(2, 2))
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim += cfg.TransferDuration(sys.PFS, "/gpfs/alpine/a.rst",
					iosim.Read, units.GiB, 1, 0, false, r)
			}
			reportSimSeconds(b, sim)
		})
	}
}

// A3: MPI-IO collective aggregation on/off for a small-request workload
// (Recommendation 2: aggregation turns many small requests into few large).
// Run on Summit's GPFS: on Cori's Lustre the default stripe count of 1
// bottlenecks even a perfectly aggregated collective at one OST's bandwidth
// — itself a finding worth keeping (see Ablation A1 for the striping cure).
func BenchmarkAblation_CollectiveAggregation(b *testing.B) {
	sys := systems.NewSummit()
	const perRank = 256 * units.KiB
	const nprocs = 512
	for _, collective := range []bool{false, true} {
		name := "independent"
		if collective {
			name = "collective"
		}
		b.Run(name, func(b *testing.B) {
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := darshan.NewRuntime(darshan.JobHeader{
					JobID: uint64(i + 1), NProcs: nprocs, StartTime: 0, EndTime: 3600,
				})
				c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(3, uint64(i))))
				path := "/gpfs/alpine/ablate/out.nc"
				if collective {
					// Two-phase collective buffering: the whole job's data
					// moves as few large well-formed requests.
					sim += c.SharedTransfer(darshan.ModuleMPIIO, path, iosim.Write,
						perRank*nprocs, true)
				} else {
					// Uncoordinated: the same volume arrives as nprocs
					// independent small requests, each paying full latency;
					// ranks overlap 64-wide, so wall time is the per-rank
					// chain times the remaining serialization.
					perRankOps := 8
					var chain float64
					for op := 0; op < perRankOps; op++ {
						chain += c.Write(darshan.ModuleMPIIO, path, 0,
							perRank/units.ByteSize(perRankOps), 0)
					}
					sim += chain * float64(nprocs) / 64
				}
			}
			reportSimSeconds(b, sim)
		})
	}
}

// A4: burst-buffer staging vs direct PFS for a re-read-heavy job
// (Recommendation 3).
func BenchmarkAblation_Staging(b *testing.B) {
	sys := systems.NewCori()
	cbb := sys.InSystem.(*datawarp.FS)
	const dataset = 100 * units.GiB
	const passes = 4
	for _, staged := range []bool{false, true} {
		name := "direct-pfs"
		if staged {
			name = "staged-cbb"
		}
		b.Run(name, func(b *testing.B) {
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := darshan.NewRuntime(darshan.JobHeader{
					JobID: uint64(i + 1), NProcs: 128, StartTime: 0, EndTime: 86400,
				})
				rng := rand.New(rand.NewPCG(4, uint64(i)))
				if staged {
					bbNodes := cbb.AllocationFor(dataset)
					c := iosim.NewClient(sys, rt, rng, iosim.WithBurstBufferNodes(bbNodes))
					sim += cbb.Stage(sys.PFS, dataset, bbNodes, rng)
					for p := 0; p < passes; p++ {
						sim += c.SharedTransfer(darshan.ModulePOSIX,
							"/var/opt/cray/dws/job/data.bin", iosim.Read, dataset, false)
					}
				} else {
					c := iosim.NewClient(sys, rt, rng)
					for p := 0; p < passes; p++ {
						sim += c.SharedTransfer(darshan.ModulePOSIX,
							"/global/cscratch1/job/data.bin", iosim.Read, dataset, false)
					}
				}
			}
			reportSimSeconds(b, sim)
		})
	}
}

// A5: production contention level vs delivered per-file performance.
func BenchmarkAblation_Contention(b *testing.B) {
	for _, util := range []float64{0, 0.45, 0.80, 0.95} {
		b.Run(fmt.Sprintf("utilization=%.0f%%", util*100), func(b *testing.B) {
			cfg := lustre.CoriScratch()
			cfg.Variability = iosim.Variability{UtilizationMean: util, Sigma: 0.3}
			fs := lustre.New(cfg)
			r := rand.New(rand.NewPCG(5, 5))
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim += fs.Transfer("/global/cscratch1/f", iosim.Read, units.GiB, 32, r)
			}
			reportSimSeconds(b, sim)
		})
	}
}

// BenchmarkLogFormat measures the serialization substrate: write+parse of a
// representative log (one job, ~200 file records).
func BenchmarkLogFormat(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Summit(), systems.NewSummit(),
		workload.Config{Seed: 17, JobScale: 0.0005, FileScale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	logs := gen.GenerateJob(0)
	log := logs[0]
	for _, l := range logs {
		if len(l.Records) > len(log.Records) {
			log = l
		}
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := logfmt.Write(&buf, log); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "bytes/log")
	})
	var buf bytes.Buffer
	if err := logfmt.Write(&buf, log); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := logfmt.Read(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArchiveIngest measures the darshan-util half at campaign scale:
// one archive of several hundred logs, ingested sequentially (streaming
// iterator + one aggregator) versus through the parallel worker pool.
// Memory stays bounded in every variant — the archive is framed entry by
// entry and never materialized (see logfmt.ArchiveReader/core.IngestArchive).
//
// The parallel variants only show wall-clock speedup when GOMAXPROCS > 1:
// each worker takes one cheap framing step under the source's lock and
// pays for inflate and decode outside it, so on N cores the workers=N
// variant approaches N× until the locked framing walk saturates. On a
// single hardware thread the variants tie (modulo lock overhead) — compare
// ns/op here only on multi-core hosts, and rely on the -race determinism
// tests for the concurrency guarantees themselves.
func BenchmarkArchiveIngest(b *testing.B) {
	sys := systems.NewSummit()
	path, nLogs := buildBenchArchive(b)

	run := func(b *testing.B, workers int, metrics bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m *obsv.Registry
			if metrics {
				m = obsv.New()
			}
			_, res, err := core.IngestArchive(context.Background(), sys, path,
				core.IngestOptions{Workers: workers, Metrics: m})
			if err != nil {
				b.Fatal(err)
			}
			if res.Parsed != nLogs || res.Failed != 0 {
				b.Fatalf("parsed %d failed %d, want %d/0", res.Parsed, res.Failed, nLogs)
			}
			if metrics && m.Counter("ingest.logs_parsed").Value() != int64(nLogs) {
				b.Fatal("metrics miscounted the pass")
			}
		}
		b.ReportMetric(float64(nLogs), "logs/op")
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1, false) })
	b.Run("workers=4", func(b *testing.B) { run(b, 4, false) })
	// The metrics-on twin of workers=4: the observability contract says the
	// per-worker shard counters cost ≲2% wall and no extra steady-state
	// allocations — internal/core's TestIngestAllocsPerEntry pins the
	// allocations.
	b.Run("workers=4+metrics", func(b *testing.B) { run(b, 4, true) })
	if n := runtime.GOMAXPROCS(0); n > 4 {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) { run(b, n, false) })
	}
}

// buildBenchArchive synthesizes the benchmark campaign once into a .dgar
// archive and returns its path and log count — the shared corpus for the
// archive-ingest and columnar benchmarks.
func buildBenchArchive(b *testing.B) (string, int) {
	b.Helper()
	campaign, err := core.NewCampaign("Summit", benchConfig)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.dgar")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	if _, err := campaign.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		mu.Lock()
		defer mu.Unlock()
		return aw.Append(log)
	}); err != nil {
		b.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path, aw.Count()
}

// BenchmarkConvertArchive measures the one-time cost of converting a
// campaign archive to its columnar sibling — the price paid once so every
// later re-render runs an order of magnitude faster.
func BenchmarkConvertArchive(b *testing.B) {
	path, nLogs := buildBenchArchive(b)
	dir := b.TempDir()
	b.ReportAllocs()
	var res core.ConvertResult
	for i := 0; i < b.N; i++ {
		dst := filepath.Join(dir, fmt.Sprintf("bench%d.dgc", i))
		var err error
		res, err = core.ConvertArchive(context.Background(), path, dst, core.ConvertOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Logs != nLogs {
			b.Fatalf("converted %d of %d logs", res.Logs, nLogs)
		}
		os.Remove(dst)
	}
	b.ReportMetric(float64(nLogs), "logs/op")
	b.ReportMetric(float64(res.BytesOut), "bytes/file")
}

// BenchmarkColumnarRender measures re-rendering from a columnar campaign —
// the workload the format exists for. The narrow variants answer a
// ≤4-counter question (per-file volume totals) by decoding only the files
// group and skipping stats-pruned columns and segments; compare against
// BenchmarkArchiveIngest, which must re-inflate and re-decode every log to
// answer anything. The fold variants rebuild the full report through
// FoldBatch and are the re-render path ioanalyze/iostudy/ioserved use.
func BenchmarkColumnarRender(b *testing.B) {
	sys := systems.NewSummit()
	path, nLogs := buildBenchArchive(b)
	columnar := filepath.Join(b.TempDir(), "bench.dgc")
	if _, err := core.ConvertArchive(context.Background(), path, columnar, core.ConvertOptions{}); err != nil {
		b.Fatal(err)
	}

	narrow := func(b *testing.B, minBytes int64) {
		b.ReportAllocs()
		var tot core.ColumnarTotals
		for i := 0; i < b.N; i++ {
			var err error
			tot, err = core.QueryColumnarTotals(context.Background(), columnar,
				core.ColumnarQuery{MinFileBytes: minBytes})
			if err != nil {
				b.Fatal(err)
			}
			if tot.Files == 0 && minBytes == 0 {
				b.Fatal("scan saw no file rows")
			}
		}
		b.ReportMetric(float64(tot.SegmentsPruned), "segs-pruned/op")
	}
	b.Run("narrow-totals", func(b *testing.B) { narrow(b, 0) })
	b.Run("narrow-totals-tail", func(b *testing.B) { narrow(b, int64(units.TiB)+1) })

	fold := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, res, err := core.IngestColumnar(context.Background(), sys, columnar,
				core.IngestOptions{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if res.Parsed != nLogs {
				b.Fatalf("folded %d of %d logs", res.Parsed, nLogs)
			}
		}
		b.ReportMetric(float64(nLogs), "logs/op")
	}
	b.Run("fold/sequential", func(b *testing.B) { fold(b, 1) })
	b.Run("fold/workers=4", func(b *testing.B) { fold(b, 4) })
}

// BenchmarkScheduler measures the EASY-backfill scheduler on a month of the
// Cori job stream.
func BenchmarkScheduler(b *testing.B) {
	jobs := sched.FromProfile(workload.Cori(), sched.SourceConfig{
		Scale: 0.001, Seed: 19, PeriodSeconds: 30 * 86400,
		ProcsPerNode: 64, MachineNodes: 9688,
		BBFraction: 0.19,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.SimulateContext(context.Background(), sched.Config{
			Nodes: 9688, BBNodes: 288, OverlapStaging: true,
		}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbes measures the TOKIO-style probe harness.
func BenchmarkProbes(b *testing.B) {
	h := probes.NewHarness(systems.NewSummit(), 23)
	var rows []probes.Variability
	for i := 0; i < b.N; i++ {
		rows = probes.Summarize(h.Run(100))
	}
	if b.N > 0 && len(rows) == 0 {
		b.Fatal("no variability rows")
	}
}

// BenchmarkStudyPipeline measures the full two-system study end to end —
// the cost of regenerating every artifact at the benchmark scale.
func BenchmarkStudyPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunStudyContext(context.Background(), benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchCampaignsProduceAllArtifacts guards that every artifact renders
// non-trivially at the benchmark scale — so `go test` alone exercises the
// same paths the benchmarks do.
func TestBenchCampaignsProduceAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	reports, err := core.RunStudyContext(context.Background(), benchConfig)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range reports {
		out := report.Everything(rep)
		if len(out) < 2000 {
			t.Errorf("%s: implausibly small full report (%d bytes)", name, len(out))
		}
	}
	_ = study
	_ = perfStudy
}
