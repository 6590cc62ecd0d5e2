package main

import (
	"flag"
	"fmt"
	"os"

	"iolayers/internal/cli"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/probes"
)

// runProbe is `iostudy probe`: TOKIO-style performance probes against a
// simulated system's storage layers, reporting delivered-bandwidth
// variability — the sampling-based third vantage point of the paper's
// Table 1 taxonomy.
//
//	iostudy probe [-system summit] [-samples 100] [-seed 1]
func runProbe(args []string) {
	const name = "iostudy probe"
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		system  = fs.String("system", "summit", "system to probe: summit or cori")
		samples = fs.Int("samples", 100, "probe repetitions per layer")
		seed    = fs.Uint64("seed", 1, "probe seed")
	)
	var common cli.CommonFlags
	common.Register(fs, cli.FlagDebug)
	fs.Parse(args)
	sys := systems.ByName(*system)
	if sys == nil {
		fmt.Fprintf(os.Stderr, "%s: unknown system %q\n", name, *system)
		os.Exit(2)
	}
	ctx, cancel := cli.SignalContext(name)
	defer cancel()
	act := common.Activate(ctx, name)
	defer act.Close()
	defer act.WriteMetricsOut()
	h := probes.NewHarness(sys, *seed)
	samplesOut, err := h.RunContext(ctx, *samples)
	if cli.Interrupted(err) {
		fmt.Fprintln(os.Stderr, name+": interrupted — summarizing completed probe series")
		fmt.Print(probes.Render(sys.Name, probes.Summarize(samplesOut)))
		os.Exit(cli.ExitInterrupted)
	}
	fmt.Print(probes.Render(sys.Name, probes.Summarize(samplesOut)))
}
