// Command iostudy runs the end-to-end reproduction study: it synthesizes a
// production campaign for Summit and/or Cori, runs it through the Darshan
// runtime against the simulated I/O subsystems, and prints the paper's
// tables and figures.
//
// Usage:
//
//	iostudy [-system both] [-scale 0.001] [-filescale 0.05] [-seed 1]
//	        [-workers 0] [-experiment all]
//
// Experiments: all, table2..table6, figure3, figure4, figure5, figure6,
// figure7, figure8, figure9, figure10, figure11 (figure12 is figure11 on
// Cori), and extension (the STDIOX statistics; pair with -extended).
//
// Persistence detours: -save streams every generated log into a campaign
// archive while the study runs; -save-columnar streams the campaign into a
// columnar file (.dgc) instead, which later re-renders order-of-magnitude
// faster; -from skips synthesis entirely and re-renders the experiments
// from an existing campaign — a row-oriented archive, a columnar file, or a
// directory of logs, as core.Open finds it — via the parallel streaming
// ingester (same deterministic worker-pool model as the study engine). All
// three take a single -system, not "both".
//
// Crash safety: SIGINT/SIGTERM stops the campaign at a job boundary and
// still renders a valid partial report. With -checkpoint, progress persists
// atomically every -checkpoint-every jobs (or logs, under -from) and an
// interrupted run continues with -resume — the resumed run's report is
// byte-identical to an uninterrupted one. A campaign checkpoint pins the
// system, seed, and scales, so -resume needs no other flags; a run that was
// saving an archive needs -save again (the archive is truncated to the
// checkpoint's durable offset and appended to). Under -from, -quarantine
// moves undecodable logs aside with a manifest.
//
// Fault injection: -faults takes "production" (a production-like mixture of
// server slowdowns, outages, and metadata storms over the campaign year) or
// a comma-separated spec such as
// "slowdowns=4,outages=1,storms=2,frac=0.1,severity=0.7,latfactor=10,duration=6,errrate=1e-4".
// The schedule is deterministic in -faultseed (default: the campaign seed),
// degraded intervals appear in -serverstats, per-job failures are reported
// instead of crashing the study, and the report gains a fault/retry section
// (also available alone via -experiment faults).
//
// Observability: -debug-addr serves net/http/pprof, expvar, and the live
// metrics registry (/metrics, /metrics.json) while the study runs; -metrics
// writes a schema-versioned JSON snapshot of the run's counters, histograms,
// and stage spans at exit and prints the observability section alongside
// the report. Metrics collection is off (and costs nothing) unless one of
// the two flags is given.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"iolayers/internal/analysis"
	"iolayers/internal/checkpoint"
	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/serverstats"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

func main() {
	var (
		system     = flag.String("system", "both", "system to study: summit, cori, or both")
		scale      = flag.Float64("scale", 0.001, "job-count scale relative to the paper's campaigns")
		fileScale  = flag.Float64("filescale", 0.05, "per-log file-count scale")
		seed       = flag.Uint64("seed", 1, "campaign seed")
		experiment = flag.String("experiment", "all", "which table/figure to print")
		extended   = flag.Bool("extended", false, "enable the STDIOX extension module (Recommendation 4)")
		serverSide = flag.Bool("serverstats", false, "also print server-side load imbalance per layer")
		whatIf     = flag.Bool("whatif", false, "also run the Recommendation-2 counterfactual (middleware aggregation) and print the comparison")
		format     = flag.String("format", "text", "output format: text, or csv (figure series for plotting)")
		save       = flag.String("save", "", "stream every generated log into this campaign archive (.dgar); single -system only")
		saveCol    = flag.String("save-columnar", "", "stream the campaign into this columnar file (.dgc); single -system only, not resumable")
		from       = flag.String("from", "", "skip synthesis and analyze this campaign (.dgar archive, .dgc columnar file, or directory of .darshan logs) instead; single -system only")
	)
	var common cli.CommonFlags
	common.Register(flag.CommandLine, cli.FlagsAll)
	flag.Parse()
	workers := &common.Workers
	quarantine := &common.QuarantineDir
	ckptPath := &common.CheckpointPath
	ckptEvery := &common.CheckpointEvery
	resumePath := &common.ResumePath

	ctx, cancel := cli.SignalContext("iostudy")
	defer cancel()

	act := common.Activate(ctx, "iostudy")
	defer act.Close()
	metrics := act.Metrics
	metricsOut := &common.MetricsOut

	if *from != "" {
		analyzeArchive(ctx, *from, *system, *workers, *experiment, *format, ingestCkptOptions{
			quarantine: *quarantine, ckptPath: *ckptPath, ckptEvery: *ckptEvery, resumePath: *resumePath,
		}, metrics, *metricsOut)
		return
	}

	if *resumePath != "" {
		resumeCampaign(ctx, *resumePath, *ckptPath, *ckptEvery, *workers, *save,
			*experiment, *format, *serverSide, metrics, *metricsOut)
		return
	}

	cfg := workload.Config{Seed: *seed, JobScale: *scale, FileScale: *fileScale,
		ExtendedStdio: *extended}
	// The schedule spans the campaign year, the timeline job operations are
	// stamped on.
	const yearSeconds = 365.25 * 86400
	schedule, err := common.FaultSchedule(*seed, yearSeconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(2)
	}
	if schedule != nil {
		cfg.Faults = schedule
		fmt.Fprintf(os.Stderr, "iostudy: %s\n", cfg.Faults.Describe())
	}
	var names []string
	switch strings.ToLower(*system) {
	case "both":
		names = []string{"Summit", "Cori"}
	case "summit":
		names = []string{"Summit"}
	case "cori":
		names = []string{"Cori"}
	default:
		fmt.Fprintf(os.Stderr, "iostudy: unknown system %q\n", *system)
		os.Exit(2)
	}
	if (*save != "" || *saveCol != "") && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "iostudy: -save/-save-columnar needs a single -system (an archive holds one system's campaign)")
		os.Exit(2)
	}
	if *save != "" && *saveCol != "" {
		fmt.Fprintln(os.Stderr, "iostudy: -save and -save-columnar are exclusive (convert the archive afterwards with ioanalyze -convert)")
		os.Exit(2)
	}
	if *saveCol != "" && *ckptPath != "" {
		fmt.Fprintln(os.Stderr, "iostudy: -save-columnar cannot checkpoint (a columnar save is not resumable; use -save, then ioanalyze -convert)")
		os.Exit(2)
	}
	if *ckptPath != "" && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "iostudy: -checkpoint needs a single -system (a checkpoint holds one campaign)")
		os.Exit(2)
	}

	for _, name := range names {
		campaign, err := core.NewCampaign(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(1)
		}
		campaign.Workers = *workers
		var collectors map[string]*serverstats.Collector
		if *serverSide {
			collectors = iosim.AttachCollectors(campaign.System)
		}
		opts := core.RunOptions{CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery,
			Metrics: metrics}
		var arch *archiveSink
		if *save != "" {
			arch = newArchiveSink(*save)
			opts.Sink, opts.SyncSink = arch.sink, arch.sync
		}
		var colSink *columnarSink
		if *saveCol != "" {
			colSink = newColumnarSink(*saveCol)
			opts.Sink = colSink.sink
		}
		rep, err := campaign.RunCheckpointed(ctx, opts)
		if cli.Interrupted(err) {
			reportInterrupted(*ckptPath, *save)
			if arch != nil {
				arch.abandon()
			}
			if colSink != nil {
				colSink.abandon()
			}
			if rep != nil {
				printReport(name, rep, *scale, *fileScale, *seed, *experiment, *format, *serverSide, collectors)
			}
			publishCollectors(metrics, collectors)
			emitMetrics(metrics, *metricsOut)
			os.Exit(cli.ExitInterrupted)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(1)
		}
		if arch != nil {
			if err := arch.close(); err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "iostudy: campaign archived to %s\n", *save)
		}
		if colSink != nil {
			if err := colSink.close(); err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "iostudy: campaign saved columnar to %s (%d segments)\n",
				*saveCol, colSink.segments)
		}
		printReport(name, rep, *scale, *fileScale, *seed, *experiment, *format, *serverSide, collectors)
		publishCollectors(metrics, collectors)
		if *whatIf {
			altCfg := cfg
			altCfg.WhatIfAggregation = true
			alt, err := core.NewCampaign(name, altCfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			alt.Workers = *workers
			altRep, err := alt.RunContext(ctx, nil)
			if err != nil {
				if cli.Interrupted(err) {
					os.Exit(cli.ExitInterrupted)
				}
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			fmt.Println(report.WhatIf(rep, altRep))
		}
	}
	emitMetrics(metrics, *metricsOut)
}

// publishCollectors folds per-server load tallies into the metrics registry
// (no-op when either side is absent).
func publishCollectors(m *obsv.Registry, collectors map[string]*serverstats.Collector) {
	if m == nil {
		return
	}
	for _, c := range collectors {
		c.Publish(m)
	}
}

// emitMetrics closes out the observability story for a run: pool gauges are
// published, the human-readable section printed, and the JSON snapshot
// written for -metrics.
func emitMetrics(m *obsv.Registry, path string) {
	if m == nil {
		return
	}
	logfmt.PublishMetrics(m)
	fmt.Println(report.Observability(m.Snapshot()))
	cli.WriteMetrics("iostudy", path, m)
}

// resumeCampaign continues a synthesis run from a campaign checkpoint: the
// checkpoint pins the system and workload config, so no other study flags
// are consulted. A campaign that was saving an archive must be given -save
// again; the archive is truncated to the checkpoint's durable offset.
func resumeCampaign(ctx context.Context, resumePath, ckptPath string, ckptEvery, workers int,
	save, experiment, format string, serverSide bool, metrics *obsv.Registry, metricsOut string) {
	ck, err := core.LoadCampaignCheckpoint(resumePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(2)
	}
	campaign, err := core.ResumeCampaign(ck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	if workers > 0 {
		campaign.Workers = workers
	}
	if ckptPath == "" {
		ckptPath = resumePath
	}
	fmt.Fprintf(os.Stderr, "iostudy: resuming %s campaign, %d of %d jobs done\n",
		ck.Meta.SystemName, ck.JobsDone(), len(ck.Done))

	opts := core.RunOptions{CheckpointPath: ckptPath, CheckpointEvery: ckptEvery, Resume: ck,
		Metrics: metrics}
	var arch *archiveSink
	if ck.ArchiveEntries > 0 || ck.ArchiveBytes > 0 {
		if save == "" {
			fmt.Fprintln(os.Stderr, "iostudy: this campaign was saving an archive; pass -save with its path to resume")
			os.Exit(2)
		}
		arch = reopenArchiveSink(save, ck.ArchiveBytes, ck.ArchiveEntries)
		opts.Sink, opts.SyncSink = arch.sink, arch.sync
	} else if save != "" {
		fmt.Fprintln(os.Stderr, "iostudy: checkpoint has no archive state; -save cannot be added on resume")
		os.Exit(2)
	}
	cfg := ck.Meta.Config

	rep, err := campaign.RunCheckpointed(ctx, opts)
	if cli.Interrupted(err) {
		reportInterrupted(ckptPath, save)
		if arch != nil {
			arch.abandon()
		}
		if rep != nil {
			printReport(ck.Meta.SystemName, rep, cfg.JobScale, cfg.FileScale, cfg.Seed,
				experiment, format, false, nil)
		}
		emitMetrics(metrics, metricsOut)
		os.Exit(cli.ExitInterrupted)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	if arch != nil {
		if err := arch.close(); err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iostudy: campaign archived to %s\n", save)
	}
	_ = serverSide // collectors cannot span an interrupted run; not offered on resume
	printReport(ck.Meta.SystemName, rep, cfg.JobScale, cfg.FileScale, cfg.Seed,
		experiment, format, false, nil)
	emitMetrics(metrics, metricsOut)
}

// reportInterrupted tells the user how to pick the run back up.
func reportInterrupted(ckptPath, save string) {
	if ckptPath == "" {
		fmt.Fprintln(os.Stderr, "iostudy: interrupted — partial report follows (run with -checkpoint to make interrupted runs resumable)")
		return
	}
	hint := "iostudy -resume " + ckptPath
	if save != "" {
		hint += " -save " + save
	}
	fmt.Fprintf(os.Stderr, "iostudy: interrupted — partial report follows; resume with: %s\n", hint)
}

// printReport renders one system's report in the chosen format.
func printReport(name string, rep *analysis.Report, scale, fileScale float64, seed uint64,
	experiment, format string, serverSide bool, collectors map[string]*serverstats.Collector) {
	var out string
	if strings.ToLower(format) == "csv" {
		out = report.CSV(rep)
	} else {
		var rerr error
		out, rerr = render(rep, strings.ToLower(experiment))
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", rerr)
			os.Exit(2)
		}
	}
	fmt.Printf("==== %s (scale %g, filescale %g, seed %d) ====\n\n",
		name, scale, fileScale, seed)
	fmt.Println(out)
	if serverSide {
		fmt.Println(report.ServerStats(name, collectors))
	}
}

// archiveSink streams generated logs into a campaign archive, with the
// Flush+fsync sync point the checkpoint machinery records as the durable
// resume offset.
type archiveSink struct {
	mu sync.Mutex
	f  *os.File
	aw *logfmt.ArchiveWriter
}

func newArchiveSink(path string) *archiveSink {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	return &archiveSink{f: f, aw: aw}
}

// reopenArchiveSink truncates the archive at path to the checkpoint's
// durable offset and appends from there.
func reopenArchiveSink(path string, offset int64, entries int) *archiveSink {
	aw, f, err := logfmt.OpenArchiveAppend(path, offset, entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	return &archiveSink{f: f, aw: aw}
}

func (s *archiveSink) sink(jobIdx, logIdx int, log *darshan.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aw.Append(log)
}

func (s *archiveSink) sync() (int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.aw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.f.Sync(); err != nil {
		return 0, 0, err
	}
	return s.aw.Offset(), s.aw.Count(), nil
}

// close finishes a completed archive: terminator, flush, fsync.
func (s *archiveSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.aw.Close(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// abandon drops the file handle of an interrupted save without writing a
// terminator: the checkpoint's durable offset — not the file length — is
// the resume point, and OpenArchiveAppend truncates to it.
func (s *archiveSink) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Close()
}

// columnarSink streams generated logs straight into a columnar campaign
// file. The writer accumulates a segment at a time onto a
// checkpoint.AtomicFile that is renamed into place only on a clean close,
// so the target path never holds a half-written campaign — which is also
// why a columnar save is not resumable (there is no durable mid-run offset
// to truncate back to).
type columnarSink struct {
	mu       sync.Mutex
	f        *checkpoint.AtomicFile
	cw       *colfmt.Writer
	segments int
}

func newColumnarSink(path string) *columnarSink {
	f, err := checkpoint.CreateAtomic(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	cw, err := colfmt.NewWriter(f, 0)
	if err != nil {
		f.Abort()
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	return &columnarSink{f: f, cw: cw}
}

func (s *columnarSink) sink(jobIdx, logIdx int, log *darshan.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cw.Append(log)
}

// close finishes the columnar file — terminator, fsync — and commits it to
// its destination path atomically.
func (s *columnarSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.f.Abort()
	if err := s.cw.Close(); err != nil {
		return err
	}
	s.segments = s.cw.Segments()
	return s.f.Commit()
}

// abandon discards the temp file of an interrupted columnar save; the
// destination path is left untouched.
func (s *columnarSink) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Abort()
}

// ingestCkptOptions carries the robustness flags into the -from path.
type ingestCkptOptions struct {
	quarantine string
	ckptPath   string
	ckptEvery  int
	resumePath string
}

// analyzeArchive is the -from path: parallel streaming ingestion of an
// existing campaign, rendered like a freshly synthesized study.
func analyzeArchive(ctx context.Context, path, system string, workers int, experiment, format string, ck ingestCkptOptions,
	metrics *obsv.Registry, metricsOut string) {
	opts := core.IngestOptions{
		Workers:         workers,
		QuarantineDir:   ck.quarantine,
		CheckpointPath:  ck.ckptPath,
		CheckpointEvery: ck.ckptEvery,
		Metrics:         metrics,
	}
	if ck.resumePath != "" {
		ickpt, err := core.LoadIngestCheckpoint(ck.resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(2)
		}
		opts.Resume = ickpt
		system, path = ickpt.System, ickpt.Source
		if opts.CheckpointPath == "" {
			opts.CheckpointPath = ck.resumePath
		}
		fmt.Fprintf(os.Stderr, "iostudy: resuming %s ingestion of %s (%d entries done)\n",
			ickpt.Mode, ickpt.Source, ickpt.EntriesDone)
	}
	if strings.EqualFold(system, "both") {
		fmt.Fprintln(os.Stderr, "iostudy: -from needs a single -system (an archive holds one system's campaign)")
		os.Exit(2)
	}
	sys := systems.ByName(system)
	if sys == nil {
		fmt.Fprintf(os.Stderr, "iostudy: unknown system %q\n", system)
		os.Exit(2)
	}
	rep, res, err := core.Ingest(ctx, sys, path, opts)
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "iostudy: skipping %s: %v\n", f.Source, f.Err)
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "iostudy: quarantined %d entries into %s\n", res.Quarantined, ck.quarantine)
	}
	interrupted := cli.Interrupted(err)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "iostudy:", err)
		os.Exit(1)
	}
	if res.Parsed == 0 && !interrupted {
		fmt.Fprintf(os.Stderr, "iostudy: no readable logs in %s (%d failures)\n", path, res.Failed)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "iostudy: interrupted after %d logs — partial report follows\n", res.Parsed)
		if opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "iostudy: resume with: iostudy -from %s -resume %s\n", path, opts.CheckpointPath)
		}
	}
	var out string
	if strings.ToLower(format) == "csv" {
		out = report.CSV(rep)
	} else {
		var rerr error
		out, rerr = render(rep, strings.ToLower(experiment))
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", rerr)
			os.Exit(2)
		}
	}
	fmt.Printf("==== %s (from %s, %d logs, %d unreadable) ====\n\n",
		sys.Name, path, res.Parsed, res.Failed)
	fmt.Println(out)
	emitMetrics(metrics, metricsOut)
	if interrupted {
		os.Exit(cli.ExitInterrupted)
	}
}

func render(r *analysis.Report, experiment string) (string, error) {
	// Experiment names are section names; report.Section resolves the
	// historical aliases (figure12, e1) itself.
	return report.Section(r, experiment)
}
