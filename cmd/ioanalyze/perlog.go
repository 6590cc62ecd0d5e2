package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iolayers/internal/cli"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
)

// showFunc renders one log, read from path, on w.
type showFunc func(w io.Writer, path string, log *darshan.Log)

// subcommand is one per-log view: the synopsis of its arguments, and the
// flags it declares beside the -debug-addr/-metrics pair every subcommand
// takes, returning the renderer that reads them once parsed.
type subcommand struct {
	synopsis string
	flags    func(fs *flag.FlagSet) showFunc
}

// subcommands are the darshan-util style views of single logs.
var subcommands = map[string]subcommand{
	"dump": {"file.darshan [...]", func(*flag.FlagSet) showFunc { return dump }},
	"summary": {"[-top N] file.darshan [...]", func(fs *flag.FlagSet) showFunc {
		top := fs.Int("top", 10, "files to list in the by-volume table")
		return func(w io.Writer, path string, log *darshan.Log) { summarize(w, path, log, *top) }
	}},
	"dxt": {"[-gap seconds] file.darshan [...]", func(fs *flag.FlagSet) showFunc {
		gap := fs.Float64("gap", 1.0, "idle seconds separating I/O phases")
		return func(w io.Writer, path string, log *darshan.Log) { showDXT(w, path, log, *gap) }
	}},
}

// eachLog runs the per-log subcommand name: every path argument is read as
// one .darshan log and shown on stdout. It returns the exit status — 0 when
// every log was shown, 1 when any was unreadable (the others are still
// shown), 2 on a usage error, 130 when interrupted.
func eachLog(name string, args []string) int {
	sub, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ioanalyze: unknown subcommand %q (want dump, summary or dxt, or flags for a campaign report)\n", name)
		return 2
	}
	prog := "ioanalyze " + name
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	show := sub.flags(fs)
	var common cli.CommonFlags
	common.Register(fs, cli.FlagDebug)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s %s\n", prog, sub.synopsis)
		return 2
	}
	ctx, cancel := cli.SignalContext(prog)
	defer cancel()
	act := common.Activate(ctx, prog)
	defer act.Close()
	exit := 0
	for _, path := range fs.Args() {
		if ctx.Err() != nil {
			exit = cli.ExitInterrupted
			break
		}
		log, err := logfmt.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", prog, path, err)
			exit = 1
			continue
		}
		show(os.Stdout, path, log)
	}
	act.WriteMetricsOut()
	return exit
}
