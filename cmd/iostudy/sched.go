package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"iolayers/internal/cli"
	"iolayers/internal/sched"
	"iolayers/internal/stats"
	"iolayers/internal/workload"
)

// runSched is `iostudy sched`: it simulates the batch scheduler over a
// profile-derived job stream and quantifies DataWarp's scheduler
// integration (paper §2.1.2) — the same jobs scheduled with stage-in
// overlapping queue wait versus staging inline on the allocation.
//
//	iostudy sched [-system cori] [-scale 0.0002] [-days 30] [-seed 1]
//	              [-faults production] [-faultseed 7]
//
// With -faults, jobs submitted inside the schedule's machine-wide slowdown
// windows run longer (their I/O phases stretch), showing how storage-side
// degradation ripples into queue waits and utilization.
func runSched(args []string) {
	const name = "iostudy sched"
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	var (
		system = fs.String("system", "cori", "system profile: summit or cori")
		scale  = fs.Float64("scale", 0.0002, "job-count scale")
		days   = fs.Float64("days", 0, "submission window in days (0 = scale the year like the job count)")
		seed   = fs.Uint64("seed", 1, "job-stream seed")
	)
	var common cli.CommonFlags
	common.Register(fs, cli.FlagDebug|cli.FlagFaults)
	fs.Parse(args)
	act := common.Activate(context.Background(), name)
	defer act.Close()
	if *days <= 0 {
		// Scale the submission window with the job count so the simulated
		// machine sees its production load density.
		*days = 365 * *scale
	}

	var (
		profile      workload.Profile
		machineNodes int
		procsPerNode int
		bbNodes      int
		bbFraction   float64
	)
	switch *system {
	case "cori", "Cori":
		profile, machineNodes, procsPerNode = workload.Cori(), 9688, 64
		bbNodes, bbFraction = 288, 0.19 // CBB-exclusive + both-layer share
	case "summit", "Summit":
		profile, machineNodes, procsPerNode = workload.Summit(), 4608, 42
		bbNodes, bbFraction = 0, 0 // SCNL is node-local: nothing to schedule
	default:
		fmt.Fprintf(os.Stderr, "%s: unknown system %q\n", name, *system)
		os.Exit(2)
	}

	schedule, err := common.FaultSchedule(*seed, *days*86400)
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(2)
	}
	if schedule != nil {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, schedule.Describe())
	}

	jobs := sched.FromProfile(profile, sched.SourceConfig{
		Scale: *scale, Seed: *seed, PeriodSeconds: *days * 86400,
		ProcsPerNode: procsPerNode, MachineNodes: machineNodes,
		BBFraction:   bbFraction,
		StageSeconds: stats.LogNormal{Median: 120, Sigma: 1},
		Faults:       schedule,
	})
	fmt.Printf("%s: %d jobs over %.0f days on %d nodes (%d burst-buffer nodes)\n\n",
		profile.SystemName, len(jobs), *days, machineNodes, bbNodes)

	ctx, cancel := cli.SignalContext(name)
	defer cancel()
	run := func(label string, overlap bool) sched.Metrics {
		_, m, err := sched.SimulateContext(ctx, sched.Config{
			Nodes: machineNodes, BBNodes: bbNodes, OverlapStaging: overlap,
		}, jobs)
		if cli.Interrupted(err) {
			fmt.Fprintf(os.Stderr, "%s: interrupted with %d of %d jobs placed\n", name, m.Jobs, len(jobs))
			os.Exit(cli.ExitInterrupted)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
		fmt.Printf("%-26s mean wait %8.1fs  p95 %9.1fs  util %5.1f%%  peak queue %4d  staging hidden %8.0fs\n",
			label, m.MeanWait, m.P95Wait, 100*m.MeanUtilization, m.PeakQueueDepth, m.StageHiddenTotal)
		return m
	}
	if bbNodes > 0 {
		over := run("DataWarp overlapped staging", true)
		inline := run("inline (user cp) staging", false)
		fmt.Printf("\nstage time hidden behind queue wait: %.0fs across the campaign\n", over.StageHiddenTotal)
		if inline.MeanWait > over.MeanWait {
			fmt.Printf("mean wait reduction from overlap: %.1fs per job\n", inline.MeanWait-over.MeanWait)
		}
	} else {
		run("FCFS + EASY backfill", false)
		fmt.Println("\n(Summit's SCNL is compute-node-local: no scheduler-managed staging pool)")
	}
}
