package sched

import (
	"math"

	"iolayers/internal/iosim/faults"
	"iolayers/internal/stats"
	"iolayers/internal/workload"
)

// SourceConfig controls job-stream synthesis from a workload profile.
type SourceConfig struct {
	// Scale multiplies the profile's full-scale job count.
	Scale float64
	// Seed drives all sampling.
	Seed uint64
	// PeriodSeconds is the submission window (a year by default).
	PeriodSeconds float64
	// ProcsPerNode converts sampled process counts to node requests.
	ProcsPerNode int
	// MachineNodes caps node requests.
	MachineNodes int
	// BBFraction is the share of jobs that request a burst-buffer
	// allocation (Cori's CBB-exclusive + both-layer jobs ≈ 19%).
	BBFraction float64
	// StageSeconds samples the stage-in duration of BB jobs.
	StageSeconds stats.Sampler
	// MaxWalltimeSeconds caps job runtimes, as production queue policies do
	// (0 = the conventional 48 h limit).
	MaxWalltimeSeconds float64
	// Faults, when non-nil, inflates the runtime of jobs submitted inside
	// the schedule's machine-wide slowdown windows: an I/O-degraded
	// interval stretches the job's I/O phases, which the scheduler sees as
	// longer occupancy. The walltime cap still applies afterwards.
	Faults *faults.Schedule
}

// FromProfile synthesizes a scheduler job stream matching the workload
// profile's job population: its process-count and runtime distributions,
// submitted uniformly over the period.
func FromProfile(p workload.Profile, cfg SourceConfig) []Job {
	if cfg.Scale <= 0 || cfg.ProcsPerNode <= 0 || cfg.MachineNodes <= 0 {
		panic("sched: SourceConfig needs positive Scale, ProcsPerNode, MachineNodes")
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = 365 * 86400
	}
	if cfg.MaxWalltimeSeconds <= 0 {
		cfg.MaxWalltimeSeconds = 48 * 3600
	}
	n := int(math.Round(float64(p.Jobs) * cfg.Scale))
	if n < 1 {
		n = 1
	}
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		r := stats.Stream(cfg.Seed, uint64(i))
		procs := int(math.Round(p.NProcs.Sample(r)))
		if procs < 1 {
			procs = 1
		}
		nodes := (procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
		if nodes > cfg.MachineNodes {
			nodes = cfg.MachineNodes
		}
		// A scheduler job spans all of its application executions (logs),
		// so its wall time is the per-execution runtime times the
		// executions-per-job draw.
		nlogs := int(math.Round(p.LogsPerJob.Sample(r)))
		if nlogs < 1 {
			nlogs = 1
		}
		if nlogs > p.MaxLogsPerJob {
			nlogs = p.MaxLogsPerJob
		}
		runtime := p.RuntimeSeconds.Sample(r) * float64(nlogs)
		if runtime < 10 {
			runtime = 10
		}
		submit := r.Float64() * cfg.PeriodSeconds
		if cfg.Faults != nil {
			// A job running through a machine-wide I/O slowdown finishes
			// late: its I/O phases stretch by the inverse of the delivered
			// bandwidth fraction at submission time.
			if s := cfg.Faults.SlowdownAt(submit); s < 1 {
				runtime /= s
			}
		}
		if runtime > cfg.MaxWalltimeSeconds {
			runtime = cfg.MaxWalltimeSeconds
		}
		j := Job{
			ID:      uint64(i + 1),
			Submit:  submit,
			Nodes:   nodes,
			Runtime: runtime,
		}
		if cfg.BBFraction > 0 && stats.Bernoulli(r, cfg.BBFraction) {
			j.BBNodes = 1 + r.IntN(16)
			if cfg.StageSeconds != nil {
				j.StageInSeconds = cfg.StageSeconds.Sample(r)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs
}
