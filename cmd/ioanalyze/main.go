// Command ioanalyze parses a directory of Darshan-format logs (as written
// by iogen or any tool targeting the logfmt format) or a campaign archive
// and prints the study's tables and figures for them — the darshan-util
// half of the pipeline on its own.
//
// Ingestion is parallel and streaming: logs fan out to a worker pool of
// private aggregators that merge at the end (deterministically — the same
// corpus renders the same report at any -workers value), and archives are
// consumed one entry at a time, so memory stays bounded regardless of
// archive size.
//
// Robustness: logs are treated as untrusted input and decoded under hard
// limits (a crafted or damaged log cannot force unbounded allocation).
// With -quarantine, undecodable logs are moved aside into the given
// directory with a MANIFEST.tsv line each instead of merely being skipped.
// With -checkpoint, progress persists every -checkpoint-every logs and an
// interrupted pass (SIGINT/SIGTERM, crash) continues with -resume,
// producing the identical report. SIGINT flushes a valid partial report.
//
// Usage:
//
//	ioanalyze -dir /path/to/logs [-system summit] [-workers 0]
//	ioanalyze -archive campaign.dgar [-system summit] [-workers 0]
//	ioanalyze -archive campaign.dgc [-system summit] [-workers 0]
//	ioanalyze -resume pass.ckpt [-checkpoint pass.ckpt]
//	ioanalyze -dir /path/to/logs -format json [-section table2]
//	ioanalyze -archive campaign.dgar -convert campaign.dgc
//
// -dir and -archive name the one source path; what it is — a directory of
// logs, a single .darshan log, a row-oriented campaign archive (.dgar) or a
// columnar campaign file (.dgc) — is decided by core.Open from the path
// itself (directory, else file header), not by which flag carried it or how
// it is named. A columnar source folds whole pre-aggregated segments instead
// of re-parsing logs. -convert writes the columnar image of the source to
// the given path (atomically; the file appears only on success) and exits
// without rendering a report.
//
// With -format json the report is the versioned JSON document that ioserved
// serves from /v1/report — stdout carries nothing but the document, so it
// can be diffed byte-for-byte against the service response. -format csv
// emits the figure series for external plotting.
//
// Exit status: 0 on success (even with some unreadable logs, which are
// reported on stderr); 1 when nothing could be parsed at all or the source
// is unreadable; 2 on usage errors; 130 when interrupted.
package main

import (
	"flag"
	"fmt"
	"os"

	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
)

func main() {
	var (
		system     = flag.String("system", "summit", "system the logs came from: summit or cori")
		dir        = flag.String("dir", "", "directory of .darshan logs")
		archive    = flag.String("archive", "", "campaign file to analyze instead of a directory: a .dgar archive, a .dgc columnar campaign, or a single .darshan log")
		formatFlag = flag.String("format", "text", "report output format: text, json, or csv")
		section    = flag.String("section", "", "render one section (table2..table6, figure3..figure11, users, predict, ...; default all)")
		convert    = flag.String("convert", "", "convert the source to a columnar campaign file (.dgc) at this path and exit")
	)
	var common cli.CommonFlags
	common.Register(flag.CommandLine, cli.FlagDebug|cli.FlagWorkers|cli.FlagCheckpoint|cli.FlagQuarantine)
	flag.Parse()

	format, err := report.ParseFormat(*formatFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioanalyze:", err)
		os.Exit(2)
	}

	ctx, cancel := cli.SignalContext("ioanalyze")
	defer cancel()
	act := common.Activate(ctx, "ioanalyze")
	defer act.Close()
	metrics := act.Metrics

	// -dir and -archive both just name the source.
	source := *archive
	if source == "" {
		source = *dir
	}

	if *convert != "" {
		if (*dir == "") == (*archive == "") {
			fmt.Fprintln(os.Stderr, "ioanalyze: -convert needs exactly one of -dir or -archive")
			os.Exit(2)
		}
		res, err := core.Convert(ctx, source, *convert, core.ConvertOptions{Metrics: metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ioanalyze:", err)
			if cli.Interrupted(err) {
				os.Exit(cli.ExitInterrupted)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ioanalyze: converted %d logs from %s into %d segments at %s (%d -> %d bytes)\n",
			res.Logs, source, res.Segments, *convert, res.BytesIn, res.BytesOut)
		if metrics != nil {
			fmt.Println(report.Observability(metrics.Snapshot()))
			act.WriteMetricsOut()
		}
		return
	}

	opts := core.IngestOptions{
		Workers:         common.Workers,
		QuarantineDir:   common.QuarantineDir,
		CheckpointPath:  common.CheckpointPath,
		CheckpointEvery: common.CheckpointEvery,
		Metrics:         metrics,
	}
	if common.ResumePath != "" {
		ck, err := core.LoadIngestCheckpoint(common.ResumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ioanalyze:", err)
			os.Exit(2)
		}
		opts.Resume = ck
		// The checkpoint pins the source and system; flags must not
		// silently redirect a resumed pass.
		*system, source = ck.System, ck.Source
		if opts.CheckpointPath == "" {
			opts.CheckpointPath = common.ResumePath
		}
		if opts.LargeJobProcs == 0 {
			opts.LargeJobProcs = ck.LargeJobProcs
		}
		fmt.Fprintf(os.Stderr, "ioanalyze: resuming %s pass over %s (%d logs done)\n",
			ck.Mode, ck.Source, ck.EntriesDone)
	}
	if source == "" {
		fmt.Fprintln(os.Stderr, "ioanalyze: -dir, -archive, or -resume is required")
		os.Exit(2)
	}
	sys := systems.ByName(*system)
	if sys == nil {
		fmt.Fprintf(os.Stderr, "ioanalyze: unknown system %q\n", *system)
		os.Exit(2)
	}

	rep, res, err := core.Ingest(ctx, sys, source, opts)

	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "ioanalyze: skipping %s: %v\n", f.Source, f.Err)
	}
	if extra := res.Failed - len(res.Failures); extra > 0 {
		fmt.Fprintf(os.Stderr, "ioanalyze: ... and %d more unreadable logs\n", extra)
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "ioanalyze: quarantined %d logs into %s\n", res.Quarantined, common.QuarantineDir)
	}
	interrupted := cli.Interrupted(err)
	if err != nil && !interrupted {
		// Framing-level damage (or an unreadable source): report it, and
		// salvage whatever was ingested before the damage point.
		fmt.Fprintln(os.Stderr, "ioanalyze:", err)
		if res.Parsed == 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ioanalyze: continuing with the %d logs before the damage\n", res.Parsed)
	}
	if res.Parsed == 0 && !interrupted {
		if res.Failed == 0 {
			fmt.Fprintf(os.Stderr, "ioanalyze: no .darshan logs in %s\n", source)
		} else {
			fmt.Fprintf(os.Stderr, "ioanalyze: every log in %s was unreadable (%d failures)\n",
				source, res.Failed)
		}
		os.Exit(1)
	}

	if interrupted {
		fmt.Fprintf(os.Stderr, "ioanalyze: interrupted after %d logs — partial report follows\n", res.Parsed)
		if opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "ioanalyze: resume with: ioanalyze -resume %s\n", opts.CheckpointPath)
		}
	}
	// The parse header is human progress, not report content: in text mode
	// it leads the report on stdout as it always has, but for machine
	// formats stdout must carry only the document, so it moves to stderr.
	headerDst := os.Stdout
	if format != report.FormatText {
		headerDst = os.Stderr
	}
	fmt.Fprintf(headerDst, "ioanalyze: parsed %d logs (%d unreadable) from %s\n\n",
		res.Parsed, res.Failed, source)
	if rep != nil {
		if format == report.FormatText {
			out, err := report.Section(rep, *section)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ioanalyze:", err)
				os.Exit(2)
			}
			fmt.Println(out)
		} else if err := report.Render(os.Stdout, rep, report.Options{Format: format, Section: *section}); err != nil {
			fmt.Fprintln(os.Stderr, "ioanalyze:", err)
			os.Exit(2)
		}
	}
	if metrics != nil {
		fmt.Fprintln(headerDst, report.Observability(metrics.Snapshot()))
		act.WriteMetricsOut()
	}
	if interrupted {
		os.Exit(cli.ExitInterrupted)
	}
}
