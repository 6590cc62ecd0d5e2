package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// runGen is `iostudy gen`: it synthesizes a production campaign and writes
// every Darshan log to disk in the self-describing compressed format, one
// file per log, the way a year of production collection would leave them.
// With -archive the campaign lands in a single .dgar bundle instead — how
// year-long collections are actually shipped.
//
//	iostudy gen -out /path/to/logs [-system summit] [-scale 0.0005]
//	            [-filescale 0.02] [-seed 1] [-archive]
func runGen(args []string) {
	const name = "iostudy gen"
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		system    = fs.String("system", "summit", "system profile: summit or cori")
		out       = fs.String("out", "", "output directory (required)")
		scale     = fs.Float64("scale", 0.0005, "job-count scale")
		fileScale = fs.Float64("filescale", 0.02, "per-log file-count scale")
		seed      = fs.Uint64("seed", 1, "campaign seed")
		archive   = fs.Bool("archive", false, "write one .dgar campaign archive instead of per-log files")
	)
	var common cli.CommonFlags
	common.Register(fs, cli.FlagDebug)
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, name+": -out is required")
		os.Exit(2)
	}
	if !*archive {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
	}

	campaign, err := core.NewCampaign(*system, workload.Config{
		Seed: *seed, JobScale: *scale, FileScale: *fileScale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}

	write := func(jobIdx, logIdx int, log *darshan.Log) error {
		file := fmt.Sprintf("%s_job%06d_log%05d.darshan", campaign.System.Name, jobIdx, logIdx)
		return logfmt.WriteFile(filepath.Join(*out, file), log)
	}
	var arch *archiveSink
	if *archive {
		if filepath.Ext(*out) == "" {
			*out += ".dgar"
		}
		if arch, err = createArchive(*out); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
		write = arch.sink
	}
	var written atomic.Int64
	sink := func(jobIdx, logIdx int, log *darshan.Log) error {
		if err := write(jobIdx, logIdx, log); err != nil {
			return err
		}
		written.Add(1)
		return nil
	}

	ctx, cancel := cli.SignalContext(name)
	defer cancel()
	act := common.Activate(ctx, name)
	defer act.Close()
	metrics := act.Metrics
	rep, err := campaign.RunContext(ctx, core.RunOptions{Sink: sink, Metrics: metrics})
	interrupted := cli.Interrupted(err)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
	// Close even when interrupted: the partial campaign is still a valid,
	// analyzable .dgar.
	if arch != nil {
		if err := arch.close(); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
	}
	if metrics != nil {
		logfmt.PublishMetrics(metrics)
		fmt.Println(report.Observability(metrics.Snapshot()))
		act.WriteMetricsOut()
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "%s: interrupted — %d logs written to %s (partial campaign)\n",
			name, written.Load(), *out)
		os.Exit(cli.ExitInterrupted)
	}
	fmt.Printf("%s: wrote %d logs (%d jobs, %d files) to %s\n",
		name, written.Load(), rep.Summary.Jobs, rep.Summary.Files, *out)
}
