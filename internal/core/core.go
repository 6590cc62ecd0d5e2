// Package core is the study engine: it orchestrates end-to-end campaigns —
// synthesize a system's production workload, run it through the Darshan
// runtime against the simulated I/O subsystem, and analyze the resulting
// logs — with deterministic parallelism.
//
// Concurrency model (DESIGN.md §7): a campaign is one more source behind
// the ingest driver — its items are job indices — so synthesis and
// ingestion share one worker pool, one batch loop and one checkpoint. Each
// worker owns a private analysis.Aggregator, and the partial aggregates
// merge in worker order after the pool drains. Per-job randomness derives
// from (seed, job index), so the report is identical for any worker count.
package core

import (
	"context"
	"fmt"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/faults"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/workload"
)

// LogSink receives every generated log. Implementations must be safe for
// concurrent calls from multiple workers; jobIdx/logIdx identify the log
// uniquely. Returning an error aborts the campaign.
type LogSink func(jobIdx, logIdx int, log *darshan.Log) error

// Campaign couples a workload profile with its simulated system and a
// generation configuration.
type Campaign struct {
	Profile workload.Profile
	System  *iosim.System
	Config  workload.Config
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
}

// NewCampaign builds a campaign for one of the shipped systems ("Summit" or
// "Cori", case-insensitive first letter).
func NewCampaign(systemName string, cfg workload.Config) (*Campaign, error) {
	sys := systems.ByName(systemName)
	if sys == nil {
		return nil, fmt.Errorf("core: unknown system %q (want Summit or Cori)", systemName)
	}
	profile, ok := workload.Profiles()[sys.Name]
	if !ok {
		return nil, fmt.Errorf("core: no workload profile for %q", sys.Name)
	}
	return &Campaign{Profile: profile, System: sys, Config: cfg}, nil
}

// Run synthesizes and analyzes the whole campaign. If sink is non-nil it is
// invoked for every log (e.g. to persist it); the analysis runs regardless.
func (c *Campaign) Run(sink LogSink) (*analysis.Report, error) {
	return c.RunContext(context.Background(), RunOptions{Sink: sink})
}

// RunOptions configures a campaign run.
type RunOptions struct {
	// Sink receives every generated log (may be nil).
	Sink LogSink
	// CheckpointPath enables checkpointing: the file is atomically
	// rewritten at every batch boundary and on cancellation, and removed
	// when the campaign completes.
	CheckpointPath string
	// CheckpointEvery is the batch size in jobs between checkpoints
	// (default 512 when checkpointing is enabled).
	CheckpointEvery int
	// Resume continues from a prior campaign checkpoint instead of starting
	// fresh. The campaign must be the checkpoint's:
	// NewCampaign(ck.System, ck.Config).
	Resume *IngestCheckpoint
	// SyncSink, when set on a checkpointed run, is called before the first
	// batch and at each batch boundary to flush the sink to durable
	// storage; the byte offset and entry count it returns are recorded in
	// the checkpoint (see IngestCheckpoint.ArchiveBytes).
	SyncSink func() (bytes int64, entries int, err error)
	// Metrics receives the run's self-instrumentation: the "generate" stage
	// span plus run.* counters, folded in at batch boundaries from
	// per-worker tallies (never from inside worker loops). Nil disables
	// metrics at zero cost.
	Metrics *obsv.Registry
}

// RunContext runs the campaign under ctx, with optional checkpointing and
// resume, through the ingest driver: a job index is an item, and a worker
// consumes it by generating the job, handing each log to the sink and
// folding it into its private aggregator. On cancellation it returns the
// partial report alongside ctx's error — the statistics over every job
// completed before the stop — after persisting a resumable checkpoint (when
// CheckpointPath is set). A sink error aborts the run with no checkpoint.
func (c *Campaign) RunContext(ctx context.Context, opts RunOptions) (*analysis.Report, error) {
	gen, err := workload.NewGenerator(c.Profile, c.System, c.Config)
	if err != nil {
		return nil, err
	}
	src := &genSource{gen: gen, cfg: c.Config, sink: opts.Sink}
	ic := &ingestCoordinator{
		sys: c.System, src: src, campaign: src, syncSink: opts.SyncSink,
		opts: IngestOptions{Workers: c.Workers, CheckpointPath: opts.CheckpointPath,
			CheckpointEvery: opts.CheckpointEvery, Resume: opts.Resume, Metrics: opts.Metrics},
		span: opts.Metrics.Span("generate"),
	}
	rep, res, err := ic.drive(ctx)
	if rep != nil && (c.Config.Faults != nil || res.Failed > 0) {
		rep.Faults = buildFaultReport(c.Config.Faults, &ic.fault, res)
	}
	return rep, err
}

// maxReportedFailedJobs caps how many failed job indices the report lists.
const maxReportedFailedJobs = 8

// buildFaultReport folds the merged fault outcome and the failed jobs into
// the report section. Quantiles come from the sorted sample multiset, so
// the section is byte-identical regardless of how jobs were partitioned
// across workers; res.Failures are in job order, so FailedJobs lists the
// lowest failed job indices.
func buildFaultReport(sched *faults.Schedule, fo *workload.FaultOutcome, res IngestResult) *analysis.FaultReport {
	fr := &analysis.FaultReport{
		OpsFailed:     fo.OpsFailed,
		OpsRetried:    fo.OpsRetried,
		RetryAttempts: fo.RetryAttempts,
		DegradedOps:   fo.DegradedOps,
		CleanOps:      fo.CleanOps,
		DegradedNanos: fo.DegradedNanos,
		TimeLostNanos: fo.TimeLostNanos,
		JobFailures:   int64(res.Failed),
		Degraded:      analysis.DurationTailOf(fo.DegradedDur),
		Clean:         analysis.DurationTailOf(fo.CleanDur),
	}
	if sched != nil {
		fr.ScheduleSeed = sched.Seed
		fr.Windows = len(sched.Windows)
		fr.TransientErrorRate = sched.TransientErrorRate
	}
	for _, f := range res.Failures {
		if len(fr.FailedJobs) == maxReportedFailedJobs {
			break
		}
		fr.FailedJobs = append(fr.FailedJobs, f.Index)
	}
	return fr
}

// RunStudy runs the standard two-system study (Summit and Cori) at the
// given configuration and returns the reports keyed by system name.
func RunStudy(cfg workload.Config) (map[string]*analysis.Report, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext is RunStudy under a context. Cancellation aborts between
// (or within) campaigns; partial per-system reports are not returned — a
// study is only meaningful complete.
func RunStudyContext(ctx context.Context, cfg workload.Config) (map[string]*analysis.Report, error) {
	out := make(map[string]*analysis.Report, 2)
	for _, name := range []string{"Summit", "Cori"} {
		campaign, err := NewCampaign(name, cfg)
		if err != nil {
			return nil, err
		}
		report, err := campaign.RunContext(ctx, RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: %s campaign: %w", name, err)
		}
		out[name] = report
	}
	return out, nil
}
