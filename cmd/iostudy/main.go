// Command iostudy is everything that synthesizes: it runs the end-to-end
// reproduction study — a production campaign for Summit and/or Cori,
// generated through the Darshan runtime against the simulated I/O
// subsystems, with the paper's tables and figures printed at the end — and,
// as subcommands, the other synthetic vantage points:
//
//	iostudy gen -out DIR [-system summit] [-archive]   write the campaign's logs to disk
//	iostudy probe [-system summit] [-samples 100]      TOKIO-style bandwidth probes
//	iostudy sched [-system cori] [-scale 0.0002]       the batch scheduler and DataWarp staging
//
// Reading a campaign back off disk is ioanalyze's job.
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
// Persistence: -save streams every generated log into a campaign archive
// while the study runs (single -system, not "both"); `ioanalyze -archive`
// re-renders it later without re-synthesizing, and `ioanalyze -convert`
// turns it into a columnar file that re-renders faster still.
//
// Crash safety: SIGINT/SIGTERM stops the campaign at a job boundary and
// still renders a valid partial report; an archive being saved is still
// terminated, so it holds a complete archive of the jobs that ran. The
// campaign runs through the same driver as ioanalyze's ingestion, with the
// same checkpoint: with -checkpoint, progress persists atomically every
// -checkpoint-every jobs and an interrupted run continues with -resume from
// the last completed batch — the resumed run's report is byte-identical to
// an uninterrupted one. A campaign checkpoint pins the system, seed, and
// scales, so -resume needs no other flags (-workers defaults to GOMAXPROCS
// again); a run that was saving an archive needs -save again (the archive
// is truncated to the offset recorded at the last completed batch and
// appended to). An ingest pass's checkpoint is refused: ioanalyze resumes
// it.
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
	"flag"
	"fmt"
	"os"
	"strings"

	"iolayers/internal/analysis"
	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/serverstats"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// subcommands are the synthetic vantage points beside the study itself.
var subcommands = map[string]func(args []string){
	"gen":   runGen,
	"probe": runProbe,
	"sched": runSched,
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		run, ok := subcommands[os.Args[1]]
		if !ok {
			fmt.Fprintf(os.Stderr, "iostudy: unknown subcommand %q (want gen, probe or sched, or flags for the study)\n", os.Args[1])
			os.Exit(2)
		}
		run(os.Args[2:])
		return
	}
	study(os.Args[1:])
}

// study runs the campaign(s) and prints the report.
func study(args []string) {
	fs := flag.NewFlagSet("iostudy", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: iostudy [flags], or iostudy gen|probe|sched [flags]")
		fs.PrintDefaults()
	}
	var (
		system     = fs.String("system", "both", "system to study: summit, cori, or both")
		scale      = fs.Float64("scale", 0.001, "job-count scale relative to the paper's campaigns")
		fileScale  = fs.Float64("filescale", 0.05, "per-log file-count scale")
		seed       = fs.Uint64("seed", 1, "campaign seed")
		experiment = fs.String("experiment", "all", "which table/figure to print")
		extended   = fs.Bool("extended", false, "enable the STDIOX extension module (Recommendation 4)")
		serverSide = fs.Bool("serverstats", false, "also print server-side load imbalance per layer")
		whatIf     = fs.Bool("whatif", false, "also run the Recommendation-2 counterfactual (middleware aggregation) and print the comparison")
		format     = fs.String("format", "text", "output format: text, or csv (figure series for plotting)")
		save       = fs.String("save", "", "stream every generated log into this campaign archive (.dgar); single -system only")
	)
	var common cli.CommonFlags
	common.Register(fs, cli.FlagDebug|cli.FlagWorkers|cli.FlagFaults|cli.FlagCheckpoint)
	fs.Parse(args)

	ctx, cancel := cli.SignalContext("iostudy")
	defer cancel()

	act := common.Activate(ctx, "iostudy")
	defer act.Close()
	metrics := act.Metrics

	// Where the campaign comes from: a checkpoint pins the system, the
	// workload config and the archive state; otherwise the flags say.
	opts := core.RunOptions{CheckpointPath: common.CheckpointPath,
		CheckpointEvery: common.CheckpointEvery, Metrics: metrics}
	var names []string
	var cfg workload.Config
	if common.ResumePath != "" {
		ck, err := core.LoadIngestCheckpoint(common.ResumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(2)
		}
		if ck.Mode != "campaign" {
			fmt.Fprintf(os.Stderr, "iostudy: %s is an ingest checkpoint (%s mode); resume it with ioanalyze -resume %[1]s\n",
				common.ResumePath, ck.Mode)
			os.Exit(2)
		}
		jobs, err := campaignJobs(ck)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(2)
		}
		wasSaving := ck.ArchiveEntries > 0 || ck.ArchiveBytes > 0
		if wasSaving && *save == "" {
			fmt.Fprintln(os.Stderr, "iostudy: this campaign was saving an archive; pass -save with its path to resume")
			os.Exit(2)
		}
		if !wasSaving && *save != "" {
			fmt.Fprintln(os.Stderr, "iostudy: checkpoint has no archive state; -save cannot be added on resume")
			os.Exit(2)
		}
		names, cfg, opts.Resume = []string{ck.System}, ck.Config, ck
		if opts.CheckpointPath == "" {
			opts.CheckpointPath = common.ResumePath
		}
		// Server-side collectors cannot span an interrupted run.
		*serverSide = false
		fmt.Fprintf(os.Stderr, "iostudy: resuming %s campaign, %d of %d jobs done\n",
			ck.System, ck.EntriesDone, jobs)
	} else {
		cfg = workload.Config{Seed: *seed, JobScale: *scale, FileScale: *fileScale,
			ExtendedStdio: *extended}
		// The schedule spans the campaign year, the timeline job operations
		// are stamped on.
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
		if *save != "" && len(names) != 1 {
			fmt.Fprintln(os.Stderr, "iostudy: -save needs a single -system (an archive holds one system's campaign)")
			os.Exit(2)
		}
		if opts.CheckpointPath != "" && len(names) != 1 {
			fmt.Fprintln(os.Stderr, "iostudy: -checkpoint needs a single -system (a checkpoint holds one campaign)")
			os.Exit(2)
		}
	}

	for _, name := range names {
		campaign, err := core.NewCampaign(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(1)
		}
		campaign.Workers = common.Workers
		var collectors map[string]*serverstats.Collector
		if *serverSide {
			collectors = iosim.AttachCollectors(campaign.System)
		}
		var arch *archiveSink
		if *save != "" {
			if ck := opts.Resume; ck != nil {
				arch, err = appendArchive(*save, ck.ArchiveBytes, ck.ArchiveEntries)
			} else {
				arch, err = createArchive(*save)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			opts.Sink, opts.SyncSink = arch.sink, arch.sync
		}
		rep, err := campaign.RunContext(ctx, opts)
		interrupted := cli.Interrupted(err)
		if err != nil && !interrupted {
			fmt.Fprintln(os.Stderr, "iostudy:", err)
			os.Exit(1)
		}
		if arch != nil {
			if err := arch.close(); err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			if !interrupted {
				fmt.Fprintf(os.Stderr, "iostudy: campaign archived to %s\n", *save)
			}
		}
		if interrupted {
			reportInterrupted(opts.CheckpointPath, *save)
			if rep != nil {
				printReport(name, rep, cfg, *experiment, *format, *serverSide, collectors)
			}
			publishCollectors(metrics, collectors)
			emitMetrics(metrics, common.MetricsOut)
			os.Exit(cli.ExitInterrupted)
		}
		printReport(name, rep, cfg, *experiment, *format, *serverSide, collectors)
		publishCollectors(metrics, collectors)
		if *whatIf {
			altCfg := cfg
			altCfg.WhatIfAggregation = true
			alt, err := core.NewCampaign(name, altCfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "iostudy:", err)
				os.Exit(1)
			}
			alt.Workers = common.Workers
			altRep, err := alt.RunContext(ctx, core.RunOptions{})
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
	emitMetrics(metrics, common.MetricsOut)
}

// campaignJobs is the job count of the campaign a checkpoint belongs to.
func campaignJobs(ck *core.IngestCheckpoint) (int, error) {
	c, err := core.NewCampaign(ck.System, ck.Config)
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGenerator(c.Profile, c.System, c.Config)
	if err != nil {
		return 0, err
	}
	return gen.Jobs(), nil
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
func printReport(name string, rep *analysis.Report, cfg workload.Config,
	experiment, format string, serverSide bool, collectors map[string]*serverstats.Collector) {
	var out string
	if strings.ToLower(format) == "csv" {
		out = report.CSV(rep)
	} else {
		// Experiment names are section names; report.Section resolves the
		// historical aliases (figure12, e1) itself.
		var rerr error
		out, rerr = report.Section(rep, strings.ToLower(experiment))
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "iostudy:", rerr)
			os.Exit(2)
		}
	}
	fmt.Printf("==== %s (scale %g, filescale %g, seed %d) ====\n\n",
		name, cfg.JobScale, cfg.FileScale, cfg.Seed)
	fmt.Println(out)
	if serverSide {
		fmt.Println(report.ServerStats(name, collectors))
	}
}
