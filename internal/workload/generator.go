package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/faults"
	"iolayers/internal/iosim/lustre"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Config controls a generated campaign's size and determinism.
type Config struct {
	// Seed makes the whole campaign reproducible: job i is a pure function
	// of (Seed, i).
	Seed uint64
	// JobScale multiplies the profile's full-scale job count (e.g. 0.001
	// generates one job per thousand). Values in (0, 1].
	JobScale float64
	// FileScale multiplies the per-log file counts, preserving per-layer
	// ratios while keeping generation tractable. Values in (0, 1].
	FileScale float64
	// ExtendedStdio enables the STDIOX module on every generated runtime —
	// the paper's Recommendation 4 counters, which production Darshan did
	// not collect. Off by default so the baseline reproduction sees exactly
	// what the paper's authors saw.
	ExtendedStdio bool
	// DXTSegments, when positive, enables extended tracing with the given
	// per-record segment cap (disabled by default, as on both studied
	// systems, §2.2).
	DXTSegments int
	// WhatIfAggregation runs the counterfactual campaign of
	// Recommendation 2: middleware-level aggregation applied platform-wide,
	// so every file's data moves in large well-formed requests instead of
	// the observed small-request mixtures. Compare against a baseline run
	// to quantify what the recommendation would have bought.
	WhatIfAggregation bool
	// Faults, when non-nil, injects the schedule's degraded windows and
	// transient errors into the campaign: NewGenerator attaches it to every
	// layer of the system, operations are stamped on the campaign timeline
	// (seconds since Jan 1 of the profile year), and fault-induced
	// failures are reported per job instead of crashing the campaign.
	// With Faults nil the generated logs are byte-identical to earlier
	// versions of this package: the fault path consumes no randomness.
	Faults *faults.Schedule
	// Retry bounds the generated applications' reaction to injected
	// transient errors; the zero value means iosim.DefaultRetryPolicy().
	Retry iosim.RetryPolicy
}

func (c Config) validate() error {
	if c.JobScale <= 0 || c.JobScale > 1 {
		return fmt.Errorf("workload: JobScale %v outside (0,1]", c.JobScale)
	}
	if c.FileScale <= 0 || c.FileScale > 1 {
		return fmt.Errorf("workload: FileScale %v outside (0,1]", c.FileScale)
	}
	return nil
}

// maxRequestsPerFile caps per-file request counts; beyond the cap the
// request size is raised to keep the volume, since terabyte files accessed
// in hundred-byte requests do not occur (and would produce absurd times).
const maxRequestsPerFile = 1 << 20

// Generator synthesizes Darshan logs for one system profile against its
// simulated I/O subsystem. A Generator is immutable after construction and
// safe for concurrent GenerateJob calls.
type Generator struct {
	profile Profile
	sys     *iosim.System
	cfg     Config
	jobs    int

	posixCfg iosim.InterfaceConfig
	stdioCfg iosim.InterfaceConfig
	mpiioCfg iosim.InterfaceConfig

	// faultsOn gates all fault accounting so that fault-free campaigns
	// consume exactly the pre-fault random stream.
	faultsOn bool
	retry    iosim.RetryPolicy

	yearStart int64
}

// NewGenerator builds a generator. It returns an error on a config outside
// its domain, so CLI tools can report bad flags instead of panicking.
func NewGenerator(p Profile, sys *iosim.System, cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sys == nil {
		return nil, fmt.Errorf("workload: nil system")
	}
	jobs := int(math.Round(float64(p.Jobs) * cfg.JobScale))
	if jobs < 1 {
		jobs = 1
	}
	// Unix time of Jan 1 of the profile year (civil arithmetic is overkill
	// for synthetic timestamps; 365.25-day years are fine).
	yearStart := int64(float64(p.Year-1970) * 365.25 * 86400)
	retry := cfg.Retry
	if retry == (iosim.RetryPolicy{}) {
		retry = iosim.DefaultRetryPolicy()
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		iosim.AttachFaults(sys, cfg.Faults)
	}
	return &Generator{
		profile:   p,
		sys:       sys,
		cfg:       cfg,
		jobs:      jobs,
		posixCfg:  iosim.DefaultPOSIX(),
		stdioCfg:  iosim.DefaultSTDIO(),
		mpiioCfg:  iosim.DefaultMPIIO(),
		faultsOn:  cfg.Faults != nil,
		retry:     retry,
		yearStart: yearStart,
	}, nil
}

// Jobs returns the scaled number of jobs in the campaign.
func (g *Generator) Jobs() int { return g.jobs }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.profile }

// System returns the simulated system the campaign runs against.
func (g *Generator) System() *iosim.System { return g.sys }

// GenerateJob synthesizes every Darshan log of job index i (0 ≤ i < Jobs()).
// The result is deterministic for a given (Config.Seed, i) regardless of
// call order or concurrency.
func (g *Generator) GenerateJob(i int) []*darshan.Log {
	logs, _ := g.GenerateJobFaults(i)
	return logs
}

// GenerateJobSafe is GenerateJobFaults with panics demoted to errors, so a
// campaign driver can report a failed job and keep going instead of
// crashing the whole study.
func (g *Generator) GenerateJobSafe(i int) (logs []*darshan.Log, fo FaultOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			logs, fo = nil, FaultOutcome{}
			err = fmt.Errorf("workload: job %d failed: %v", i, p)
		}
	}()
	logs, fo = g.GenerateJobFaults(i)
	return logs, fo, nil
}

// GenerateJobFaults is GenerateJob plus the job's fault outcome: with a
// fault schedule configured, operations are stamped on the campaign
// timeline, degraded and retried operations are accounted, and operations
// that exhaust their retries are dropped from the log (they moved no data)
// and counted as failed. Without a schedule the outcome is zero.
func (g *Generator) GenerateJobFaults(i int) ([]*darshan.Log, FaultOutcome) {
	if i < 0 || i >= g.jobs {
		panic(fmt.Sprintf("workload: job index %d outside [0,%d)", i, g.jobs))
	}
	var fo FaultOutcome
	r := stats.Stream(g.cfg.Seed, uint64(i))
	p := &g.profile

	jobID := uint64(1_000_000 + i)
	uid := uint64(1000 + r.IntN(p.Users))
	domain := p.Domains.Sample(r)
	covered := stats.Bernoulli(r, p.DomainCoverage)

	nprocs := int(math.Round(p.NProcs.Sample(r)))
	if nprocs < 1 {
		nprocs = 1
	}
	if nprocs > 1<<18 {
		nprocs = 1 << 18
	}
	// Quota-sample the job layer class with a golden-ratio low-discrepancy
	// sequence: the "both layers" class is rare (1.4% on Summit) yet holds
	// every in-system file, so leaving it to independent draws would make
	// small campaigns' layer ratios (Table 3) wildly noisy.
	jobClass := p.JobClassMix.SampleQuantile(lowDiscrepancy(uint64(i), g.cfg.Seed))

	nlogs := int(math.Round(p.LogsPerJob.Sample(r)))
	if nlogs < 1 {
		nlogs = 1
	}
	if nlogs > p.MaxLogsPerJob {
		nlogs = p.MaxLogsPerJob
	}

	// Per-job file populations (see LayerProfile.FilesPerJob) are drawn
	// once and spread across the job's logs.
	pfsPerJob, insysPerJob := -1, -1
	if p.PFS.FilesPerJob != nil && (jobClass == PFSOnly || jobClass == BothLayers) {
		pfsPerJob = g.scaledCount(p.PFS.FilesPerJob.Sample(r), r)
	}
	if p.InSystem.FilesPerJob != nil && (jobClass == InSystemOnly || jobClass == BothLayers) {
		insysPerJob = g.scaledCount(p.InSystem.FilesPerJob.Sample(r), r)
	}
	perLogShare := func(total, li int) int {
		n := total / nlogs
		if li < total%nlogs {
			n++
		}
		if n > maxFilesPerLogLayer {
			n = maxFilesPerLogLayer
		}
		return n
	}

	// A "tuner" user adopts I/O optimizations halfway through the year
	// (the paper's §5 future-work question, with known ground truth).
	tuner := p.TunerFraction > 0 &&
		lowDiscrepancy(uid, g.cfg.Seed+4) < p.TunerFraction
	midYear := g.yearStart + int64(182.5*86400)

	jobStart := g.yearStart + g.sampleStartOffset(r)
	logs := make([]*darshan.Log, 0, nlogs)
	for li := 0; li < nlogs; li++ {
		runtime := p.RuntimeSeconds.Sample(r)
		if runtime < 10 {
			runtime = 10
		}
		meta := map[string]string{"project": fmt.Sprintf("%.3s%03d", domain, uid%997)}
		if covered {
			meta["domain"] = domain
		}
		hdr := darshan.JobHeader{
			JobID:     jobID,
			UserID:    uid,
			NProcs:    nprocs,
			StartTime: jobStart,
			EndTime:   jobStart + int64(runtime),
			Exe:       fmt.Sprintf("/sw/%s/apps/%s/run.x", g.sys.Name, shortDomain(domain)),
			Metadata:  meta,
		}
		rt := darshan.NewRuntime(hdr)
		if g.cfg.ExtendedStdio {
			rt.EnableExtendedStdio()
		}
		if g.cfg.DXTSegments > 0 {
			rt.EnableDXT(g.cfg.DXTSegments)
		}

		tuned := tuner && jobStart >= midYear

		// The log's position on the campaign timeline (seconds since Jan 1
		// of the profile year) aligns its operations with fault windows.
		t0 := float64(jobStart - g.yearStart)

		var clock float64
		if jobClass == PFSOnly || jobClass == BothLayers {
			n := 0
			if pfsPerJob >= 0 {
				n = perLogShare(pfsPerJob, li)
			} else {
				n = g.scaledCount(p.PFS.FilesPerLog.Sample(r), r)
			}
			for f := 0; f < n; f++ {
				clock = g.genFile(rt, r, &p.PFS, g.sys.PFS, domain, nprocs, jobID, li, f, tuned, t0, clock, &fo)
			}
		}
		if jobClass == InSystemOnly || jobClass == BothLayers {
			n := 0
			if insysPerJob >= 0 {
				n = perLogShare(insysPerJob, li)
			} else {
				n = g.scaledCount(p.InSystem.FilesPerLog.Sample(r), r)
			}
			for f := 0; f < n; f++ {
				clock = g.genFile(rt, r, &p.InSystem, g.sys.InSystem, domain, nprocs, jobID, li, f, tuned, t0, clock, &fo)
			}
		}

		log := rt.Finalize()
		// The instrumented window closes when the last I/O completes, even
		// if that overran the nominal runtime draw.
		if end := jobStart + int64(clock) + 1; end > log.Job.EndTime {
			log.Job.EndTime = end
		}
		logs = append(logs, log)
		jobStart = log.Job.EndTime + int64(1+r.IntN(600))
	}
	return logs, fo
}

// sampleStartOffset draws a job's submission offset within the year,
// weighted by the profile's monthly activity (uniform if unset).
func (g *Generator) sampleStartOffset(r *rand.Rand) int64 {
	const monthSecs = 30.4 * 86400
	w := g.profile.MonthlyActivity
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return int64(r.Float64() * 364 * 86400)
	}
	u := r.Float64() * total
	month := 11
	for m, v := range w {
		if u < v {
			month = m
			break
		}
		u -= v
	}
	return int64((float64(month) + r.Float64()) * monthSecs)
}

// maxFilesPerLogLayer bounds one log's file count on one layer. The
// lognormal file-count draws are heavy-tailed; without a cap a single draw
// can dominate a small campaign's totals and runtimes.
const maxFilesPerLogLayer = 5000

// scaledCount applies FileScale to a sampled per-log file count with
// probabilistic rounding, preserving the mean except at the variance cap.
func (g *Generator) scaledCount(raw float64, r *rand.Rand) int {
	v := raw * g.cfg.FileScale
	if v <= 0 {
		return 0
	}
	n := int(v)
	if stats.Bernoulli(r, v-float64(n)) {
		n++
	}
	if n > maxFilesPerLogLayer {
		n = maxFilesPerLogLayer
	}
	return n
}

func (g *Generator) ifaceConfig(m darshan.ModuleID) iosim.InterfaceConfig {
	switch m {
	case darshan.ModulePOSIX:
		return g.posixCfg
	case darshan.ModuleSTDIO:
		return g.stdioCfg
	case darshan.ModuleMPIIO:
		return g.mpiioCfg
	default:
		panic(fmt.Sprintf("workload: no interface config for %v", m))
	}
}

// genFile synthesizes one file's access on one layer and records it in the
// runtime. t0 is the log's start on the campaign timeline; fo accumulates
// the job's fault outcome. It returns the advanced log clock.
func (g *Generator) genFile(rt *darshan.Runtime, r *rand.Rand, lp *LayerProfile,
	layer iosim.Layer, domain string, nprocs int, jobID uint64, logIdx, fileIdx int,
	tuned bool, t0, clock float64, fo *FaultOutcome) float64 {

	p := &g.profile
	iface := lp.InterfaceMix.Sample(r)
	ifp, ok := lp.Interfaces[iface]
	if !ok {
		panic(fmt.Sprintf("workload: %s layer has no profile for %v", layer.Name(), iface))
	}

	class := ifp.ClassMix.Sample(r)
	if layer.Kind() == iosim.InSystem {
		if forced, ok := p.InSystemDomainClass[domain]; ok {
			class = forced
		}
	}

	ext := p.DataExtensions.Sample(r)
	if iface == darshan.ModuleSTDIO {
		ext = p.StdioExtensions.Sample(r)
	}
	path := fmt.Sprintf("%s/%s/job%d/l%d/f%d.%s",
		layer.Mount(), shortDomain(domain), jobID, logIdx, fileIdx, ext)

	shared := nprocs > 1 && stats.Bernoulli(r, lp.SharedFileFrac)
	rank := darshan.SharedRank
	procs := nprocs
	if !shared {
		rank = int32(r.IntN(nprocs))
		procs = 1
	}
	collFrac := lp.CollectiveFrac
	if tuned {
		// Tuned users let the library do collective buffering (§5).
		collFrac = 0.9
	}
	collective := iface == darshan.ModuleMPIIO && stats.Bernoulli(r, collFrac)

	volScale := 1.0
	if s, ok := p.DomainVolumeScale[domain]; ok {
		volScale = s
	}
	large := nprocs > p.LargeJobProcs

	cfg := g.ifaceConfig(iface)

	// Open. A metadata-storm window inflates the per-open latency.
	openLat := layer.MetaLatency()
	if g.faultsOn {
		if eff := iosim.EffectAt(layer, path, iosim.Read, 0, 1, t0+clock); eff.LatencyScale > 1 {
			openLat *= eff.LatencyScale
		}
	}
	openDur := openLat + cfg.PerCallOverhead
	rt.Observe(darshan.Op{Module: iface, Path: path, Rank: rank, Kind: darshan.OpOpen,
		Start: clock, End: clock + openDur, Collective: collective})
	clock += openDur

	if class == ReadOnly || class == ReadWrite {
		reqs := lp.ReadReq
		if large && lp.LargeJobReadReq != nil {
			reqs = *lp.LargeJobReadReq
		}
		clock = g.genTransfer(rt, r, cfg, layer, path, iface, rank, procs, collective,
			iosim.Read, ifp.ReadSize, volScale, reqs, t0, clock, fo)
	}
	if class == WriteOnly || class == ReadWrite {
		reqs := lp.WriteReq
		if large && lp.LargeJobWriteReq != nil {
			reqs = *lp.LargeJobWriteReq
		}
		clock = g.genTransfer(rt, r, cfg, layer, path, iface, rank, procs, collective,
			iosim.Write, ifp.WriteSize, volScale, reqs, t0, clock, fo)
	}

	// Close.
	closeDur := cfg.PerCallOverhead
	rt.Observe(darshan.Op{Module: iface, Path: path, Rank: rank, Kind: darshan.OpClose,
		Start: clock, End: clock + closeDur})
	clock += closeDur

	// Lustre-backed files also get a Lustre module striping record, the way
	// Darshan's Lustre module instruments every file on a Lustre mount.
	// Tuned users `lfs setstripe` their large files to a wide layout.
	if lfs, ok := layer.(*lustre.FS); ok {
		layout := lfs.LayoutOf(path)
		if tuned {
			layout.StripeCount = 16
		}
		rt.SetLustreStriping(path, lfs.OSTCount(), 1, layout.StartOST,
			layout.StripeSize, layout.StripeCount)
	}

	return clock + 1e-3 // small gap before the next file
}

// genTransfer synthesizes one direction's aggregate transfer on one file.
//
// The file's volume is split across the profile's request-size bins so that
// the number of calls landing in bin b is proportional to the bin's weight:
// with per-bin sizes s_b and normalized weights ŵ_b, bin b receives volume
// V·ŵ_b·s_b/Σ(ŵ_j·s_j) and therefore V·ŵ_b/Σ(ŵ_j·s_j) calls. This makes the
// campaign-wide access-size histogram (Figure 4) match the profile exactly,
// and gives every file the realistic mix of bookkeeping-sized and
// bulk-data-sized requests — the bulk requests carry the bytes, the small
// ones dominate the call counts, just as production Darshan data shows.
func (g *Generator) genTransfer(rt *darshan.Runtime, r *rand.Rand,
	cfg iosim.InterfaceConfig, layer iosim.Layer, path string,
	iface darshan.ModuleID, rank int32, procs int, collective bool,
	rw iosim.RW, sizeDist stats.Sampler, volScale float64, reqs RequestSizes,
	t0, clock float64, fo *FaultOutcome) float64 {

	volume := units.ByteSize(sizeDist.Sample(r) * volScale)
	if volume < 1 {
		volume = 1
	}
	kind := darshan.OpWrite
	if rw == iosim.Read {
		kind = darshan.OpRead
	}
	if g.cfg.WhatIfAggregation {
		// Counterfactual: the middleware buffers application requests and
		// issues large aggregated transfers (Recommendation 2).
		reqs = aggregatedRequests
	}

	// Per-bin request sizes and the mean bytes moved per call, over the
	// bins feasible for this file: a request cannot be larger than the
	// file's whole transfer, so oversized bins are excluded rather than
	// letting a rare huge-request draw multiply a small file's volume.
	var sizes [units.NumRequestBins]units.ByteSize
	var feasible [units.NumRequestBins]bool
	var wsum, meanBytes float64
	for b, w := range reqs.Weights {
		if w <= 0 {
			continue
		}
		s := SampleWithinBin(r, units.RequestBin(b))
		if s > volume {
			continue
		}
		sizes[b] = s
		feasible[b] = true
		wsum += w
		meanBytes += w * float64(s)
	}
	if wsum <= 0 {
		// The whole volume is below even the smallest feasible request:
		// one request carries it all.
		return g.emitBatch(rt, r, cfg, layer, path, iface, rank, procs,
			collective, rw, kind, volume, 1, 0, t0, clock, fo)
	}
	meanBytes /= wsum

	totalCalls := float64(volume) / meanBytes
	if totalCalls > maxRequestsPerFile {
		totalCalls = maxRequestsPerFile
	}

	// Batches append sequentially by default; STDIO writes rewind to the
	// start of the file with probability stdioRewriteFrac, modeling the
	// rewrite-heavy dynamic data (logs, restart files) whose write
	// amplification on flash the paper's Recommendation 4 worries about.
	var offset int64
	emitted := 0
	for b, w := range reqs.Weights {
		if !feasible[b] {
			continue
		}
		// Probabilistic rounding preserves the expected per-bin call count
		// even when a small file cannot populate every bin.
		exact := totalCalls * w / wsum
		n := int(exact)
		if stats.Bernoulli(r, exact-float64(n)) {
			n++
		}
		if n == 0 {
			continue
		}
		if iface == darshan.ModuleSTDIO && rw == iosim.Write &&
			stats.Bernoulli(r, stdioRewriteFrac) {
			offset = 0
		}
		clock = g.emitBatch(rt, r, cfg, layer, path, iface, rank, procs,
			collective, rw, kind, sizes[b], n, offset, t0, clock, fo)
		offset += int64(n) * int64(sizes[b])
		emitted += n
	}
	if emitted == 0 {
		// Rounding produced no calls at all: a single request of the whole
		// volume keeps the file's bytes on the books.
		clock = g.emitBatch(rt, r, cfg, layer, path, iface, rank, procs,
			collective, rw, kind, volume, 1, 0, t0, clock, fo)
	}
	return clock
}

// aggregatedRequests is the request mixture a buffering middleware would
// issue: everything lands in the 4–10 MiB bin.
var aggregatedRequests = func() RequestSizes {
	var rs RequestSizes
	rs.Weights[units.Bin10MTo100M] = 1
	return rs
}()

// stdioRewriteFrac is the probability that an STDIO write batch rewinds to
// offset zero instead of appending — the dynamic-data share of STDIO files.
const stdioRewriteFrac = 0.3

// emitBatch records n back-to-back requests of one size starting at offset,
// with the MPI-IO POSIX mirror when applicable. With faults configured,
// the batch is stamped at campaign time t0+clock: requests landing inside a
// fault window run degraded, draw transient errors per the schedule's error
// rate, retry with bounded backoff, and — when retries run dry — fail and
// drop out of the observed counts (a failed request moved no data).
func (g *Generator) emitBatch(rt *darshan.Runtime, r *rand.Rand,
	cfg iosim.InterfaceConfig, layer iosim.Layer, path string,
	iface darshan.ModuleID, rank int32, procs int, collective bool,
	rw iosim.RW, kind darshan.OpKind, reqSize units.ByteSize, n int,
	offset int64, t0, clock float64, fo *FaultOutcome) float64 {

	if reqSize < 1 {
		reqSize = 1
	}
	t := t0 + clock
	// One representative per-rank request duration from the shared
	// interface cost model. On a shared file the batch's calls are spread
	// across the participating ranks and run concurrently, so wall time is
	// the per-rank call chain, not the serialized total — this concurrency
	// is exactly why POSIX outruns the inherently serial STDIO stream on
	// shared files (Figures 11–12). STDIO's ParallelCap pins it to one.
	d := cfg.TransferDurationAt(layer, path, rw, reqSize, 1, 0, collective, t, r)
	parallel := procs
	if cfg.ParallelCap > 0 && parallel > cfg.ParallelCap {
		parallel = cfg.ParallelCap
	}
	if parallel > n {
		parallel = n
	}
	if parallel < 1 {
		parallel = 1
	}
	total := d * float64(n) / float64(parallel)

	nOK := n
	if g.faultsOn {
		eff := iosim.EffectAt(layer, path, rw, reqSize, 1, t)
		if eff.Degraded {
			fo.DegradedOps += int64(n)
			fo.DegradedNanos += int64(total * 1e9)
			if eff.BWScale > 0 && eff.BWScale < 1 {
				// Slowdown excess over the clean duration, bandwidth-term
				// estimate: a degraded request would have taken ≈ d·BWScale.
				fo.TimeLostNanos += int64(d * (1 - eff.BWScale) * float64(n) / float64(parallel) * 1e9)
			}
		} else {
			fo.CleanOps += int64(n)
		}
		fo.sample(eff.Degraded, d)
		if eff.ErrorRate > 0 {
			// Batch-level retry chain: Binomial(k, p) of the k attempts
			// error and re-attempt, up to the policy's retry bound; the
			// survivors of the final round fail outright.
			pol := g.retry
			retrying := faults.Binomial(r, n, eff.ErrorRate)
			if retrying > 0 {
				if pol.MaxRetries > 0 {
					fo.OpsRetried += int64(retrying)
				}
				extra := 0
				for k := 0; k < pol.MaxRetries && retrying > 0; k++ {
					extra += retrying
					retrying = faults.Binomial(r, retrying, eff.ErrorRate)
				}
				failed := retrying
				retryTime := (d + pol.Backoff) * float64(extra) / float64(parallel)
				total += retryTime
				fo.RetryAttempts += int64(extra)
				fo.TimeLostNanos += int64(retryTime * 1e9)
				fo.OpsFailed += int64(failed)
				nOK = n - failed
			}
		}
	}

	if nOK > 0 {
		rt.ObserveN(darshan.Op{
			Module: iface, Path: path, Rank: rank, Kind: kind,
			Size: reqSize, Offset: offset, Start: clock, End: clock + total,
			Collective: collective,
		}, nOK)
	}

	if iface == darshan.ModuleMPIIO && nOK > 0 {
		// The POSIX system calls underneath: collective buffering merges
		// the application requests into larger well-formed ones.
		posixSize := reqSize
		posixN := nOK
		if collective {
			agg := units.ByteSize(min(procs, 32))
			posixSize = reqSize * agg
			if maxReq := 64 * units.MiB; posixSize > maxReq {
				posixSize = maxReq
			}
			posixN = int((units.ByteSize(nOK)*reqSize + posixSize - 1) / posixSize)
			if posixN < 1 {
				posixN = 1
			}
		}
		rt.ObserveN(darshan.Op{
			Module: darshan.ModulePOSIX, Path: path, Rank: rank, Kind: kind,
			Size: posixSize, Offset: offset, Start: clock, End: clock + total,
		}, posixN)
	}
	return clock + total
}

// lowDiscrepancy maps (index, seed) onto [0,1) with a golden-ratio Weyl
// sequence: consecutive indexes spread evenly over the unit interval, so
// categorical quotas are met almost exactly at every prefix length.
func lowDiscrepancy(i, seed uint64) float64 {
	const phi = 0.6180339887498949
	v := (float64(i)+0.5)*phi + float64(seed%997)/997.0
	return v - float64(uint64(v))
}

// shortDomain compresses a domain name into a path component.
func shortDomain(domain string) string {
	out := make([]byte, 0, len(domain))
	for i := 0; i < len(domain); i++ {
		c := domain[i]
		switch {
		case c >= 'a' && c <= 'z':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+('a'-'A'))
		}
	}
	if len(out) == 0 {
		return "misc"
	}
	return string(out)
}
