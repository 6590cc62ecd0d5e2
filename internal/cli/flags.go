package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"

	"iolayers/internal/iosim/faults"
	"iolayers/internal/obsv"
)

// FlagGroup selects which of the standard flag families a binary registers.
// Every binary shares one implementation of the shared surface — the debug
// endpoint, metrics snapshots, worker pools, fault schedules, and
// checkpoint/resume plumbing — instead of each main.go re-declaring its own
// copies.
type FlagGroup uint

// Flag families. Combine with |.
const (
	// FlagDebug registers -debug-addr and -metrics.
	FlagDebug FlagGroup = 1 << iota
	// FlagWorkers registers -workers.
	FlagWorkers
	// FlagFaults registers -faults and -faultseed.
	FlagFaults
	// FlagCheckpoint registers -checkpoint, -checkpoint-every, and -resume.
	FlagCheckpoint
	// FlagQuarantine registers -quarantine.
	FlagQuarantine
)

// CommonFlags is the flag plumbing shared across the cmd/ binaries: one
// Register call declares the chosen families on a FlagSet, and one Activate
// call turns the parsed values into running machinery (metrics registry,
// debug endpoint). Fields are exported so binaries read the parsed values
// directly.
type CommonFlags struct {
	// FlagDebug.
	DebugAddr  string
	MetricsOut string
	// FlagWorkers.
	Workers int
	// FlagFaults.
	FaultSpec string
	FaultSeed uint64
	// FlagCheckpoint.
	CheckpointPath  string
	CheckpointEvery int
	ResumePath      string
	// FlagQuarantine.
	QuarantineDir string

	groups FlagGroup
}

// Register declares the selected flag families on fs. Call once, before
// fs.Parse.
func (c *CommonFlags) Register(fs *flag.FlagSet, groups FlagGroup) {
	c.groups = groups
	if groups&FlagDebug != 0 {
		fs.StringVar(&c.DebugAddr, "debug-addr", "",
			"serve pprof, expvar, and /metrics on this address while running")
		fs.StringVar(&c.MetricsOut, "metrics", "",
			"write a metrics snapshot (JSON) to this file and print the observability section")
	}
	if groups&FlagWorkers != 0 {
		fs.IntVar(&c.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	}
	if groups&FlagFaults != 0 {
		fs.StringVar(&c.FaultSpec, "faults", "",
			`fault schedule: "production" or k=v list (slowdowns,outages,storms,frac,severity,latfactor,duration,errrate); empty = no faults`)
		fs.Uint64Var(&c.FaultSeed, "faultseed", 0, "fault-schedule seed (0 = primary seed)")
	}
	if groups&FlagCheckpoint != 0 {
		fs.StringVar(&c.CheckpointPath, "checkpoint", "",
			"persist resumable progress to this file")
		fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 0,
			"work items between checkpoint writes (0 = default)")
		fs.StringVar(&c.ResumePath, "resume", "",
			"resume an interrupted run from this checkpoint file")
	}
	if groups&FlagQuarantine != 0 {
		fs.StringVar(&c.QuarantineDir, "quarantine", "",
			"move undecodable logs into this directory (with a MANIFEST.tsv)")
	}
}

// Activation is the running machinery behind a binary's common flags: the
// metrics registry (nil when observability is off) and the debug endpoint.
type Activation struct {
	// Name is the binary name, used as the error and log prefix.
	Name string
	// Metrics is the process registry; nil unless -debug-addr or -metrics
	// was given (nil is the zero-cost disabled state throughout the
	// pipeline).
	Metrics *obsv.Registry

	metricsOut string
	stopDebug  func()
	closeOnce  sync.Once
}

// Activate turns the parsed flags into running state: it builds the metrics
// registry when -debug-addr or -metrics asked for one and starts the debug
// endpoint. The endpoint is torn down when ctx is cancelled or Close is
// called, whichever comes first. Activate exits the process on a bind
// failure, the same contract as StartDebug.
func (c *CommonFlags) Activate(ctx context.Context, name string) *Activation {
	a := &Activation{Name: name, metricsOut: c.MetricsOut}
	if c.DebugAddr != "" || c.MetricsOut != "" {
		a.Metrics = obsv.New()
	}
	a.stopDebug = StartDebug(name, c.DebugAddr, a.Metrics)
	if ctx != nil && c.DebugAddr != "" {
		go func() {
			<-ctx.Done()
			a.Close()
		}()
	}
	return a
}

// Close shuts the debug endpoint down. Safe to call more than once (also
// concurrently with the ctx-cancellation teardown) and on an Activation
// whose endpoint never started.
func (a *Activation) Close() {
	a.closeOnce.Do(func() {
		if a.stopDebug != nil {
			a.stopDebug()
		}
	})
}

// WriteMetricsOut writes the registry snapshot to the -metrics path (no-op
// when either side is absent) — call once at exit, after the final
// PublishMetrics folds.
func (a *Activation) WriteMetricsOut() {
	WriteMetrics(a.Name, a.metricsOut, a.Metrics)
}

// FaultSchedule materializes the -faults/-faultseed pair into a schedule
// spanning periodSeconds, defaulting the seed to defaultSeed when
// -faultseed was 0. Returns (nil, nil) when no -faults spec was given.
func (c *CommonFlags) FaultSchedule(defaultSeed uint64, periodSeconds float64) (*faults.Schedule, error) {
	if c.FaultSpec == "" {
		return nil, nil
	}
	seed := c.FaultSeed
	if seed == 0 {
		seed = defaultSeed
	}
	gc, err := faults.ParseSpec(c.FaultSpec, seed, periodSeconds)
	if err != nil {
		return nil, err
	}
	return faults.Generate(gc), nil
}

// Fatal prints a name-prefixed error and exits with the usage status when
// usage is true, 1 otherwise — the shared error-exit convention of the
// binaries.
func Fatal(name string, usage bool, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if usage {
		os.Exit(2)
	}
	os.Exit(1)
}
