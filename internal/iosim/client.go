package iosim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/units"
)

// InterfaceConfig is the cost model of one I/O middleware interface as seen
// by an application process. The three interfaces differ in per-call
// software overhead, user-space buffering, and their ability to exploit
// process parallelism — the properties behind the POSIX-versus-STDIO
// performance gap in the paper's Figures 11 and 12.
type InterfaceConfig struct {
	// PerCallOverhead is the user-space software cost per library call, in
	// seconds (locking, format handling, dispatch).
	PerCallOverhead float64
	// BufferSize, when positive, chunks every data transfer into
	// buffer-size requests to the storage layer, the way a FILE* stream
	// does. Zero means requests pass through at application size.
	BufferSize units.ByteSize
	// LatencyDamping scales the storage layer's per-request latency for
	// buffered chunked streams, modeling kernel readahead and write-back
	// absorbing most per-chunk round trips. 1 = no damping.
	LatencyDamping float64
	// ParallelCap, when positive, caps how many processes' injection
	// bandwidth one transfer can exploit. STDIO streams are effectively
	// serial (cap 1); POSIX and MPI-IO scale with the job.
	ParallelCap int
	// CollectiveOverhead is the per-collective synchronization and shuffle
	// cost for MPI-IO collective operations, in seconds.
	CollectiveOverhead float64
}

// DefaultPOSIX returns the POSIX interface model: thin system-call wrapper,
// no buffering, full parallelism.
func DefaultPOSIX() InterfaceConfig {
	return InterfaceConfig{
		PerCallOverhead: 1.5e-6,
		LatencyDamping:  1,
	}
}

// DefaultSTDIO returns the STDIO interface model: libc stream with a small
// user-space buffer, per-call locking overhead, chunked transfers with
// readahead-damped latency, and no multi-process scaling. These defaults
// reproduce the paper's observed POSIX/STDIO gap: large on reads
// (the stream cannot use the machine's parallelism), mild on writes at
// small-to-medium sizes (write-back absorbs chunking).
func DefaultSTDIO() InterfaceConfig {
	return InterfaceConfig{
		PerCallOverhead: 2.5e-6,
		BufferSize:      64 * units.KiB,
		LatencyDamping:  0.12,
		ParallelCap:     1,
	}
}

// DefaultMPIIO returns the MPI-IO interface model: POSIX-like per-call cost
// plus a collective synchronization term; collective transfers aggregate
// into large well-formed requests (collective buffering).
func DefaultMPIIO() InterfaceConfig {
	return InterfaceConfig{
		PerCallOverhead:    3e-6,
		LatencyDamping:     1,
		CollectiveOverhead: 150e-6,
	}
}

// AllocLayer is implemented by layers whose per-job bandwidth depends on an
// allocation span (DataWarp burst buffers). Clients carrying a positive
// allocation use TransferAlloc instead of Transfer.
type AllocLayer interface {
	TransferAlloc(path string, rw RW, size units.ByteSize, procs, allocNodes int, r *rand.Rand) float64
}

// AllocLayerAt is AllocLayer with campaign-time context, so allocation-aware
// layers can degrade transfers inside fault windows.
type AllocLayerAt interface {
	TransferAllocAt(path string, rw RW, size units.ByteSize, procs, allocNodes int, t float64, r *rand.Rand) float64
}

// layerRequestAt issues one request to layer at campaign time t, honoring a
// burst-buffer allocation span when the layer supports one and bbNodes is
// positive, and preferring the time-aware entry points so fault windows
// apply. NaN t means "no campaign-time context" (fault windows never match).
func layerRequestAt(layer Layer, path string, rw RW, size units.ByteSize, procs, bbNodes int, t float64, r *rand.Rand) float64 {
	if bbNodes > 0 {
		if al, ok := layer.(AllocLayerAt); ok {
			return al.TransferAllocAt(path, rw, size, procs, bbNodes, t, r)
		}
		if al, ok := layer.(AllocLayer); ok {
			return al.TransferAlloc(path, rw, size, procs, bbNodes, r)
		}
	}
	if tl, ok := layer.(TimedLayer); ok {
		return tl.TransferAt(path, rw, size, procs, t, r)
	}
	return layer.Transfer(path, rw, size, procs, r)
}

// TransferDuration returns the wall-clock seconds one application-level
// transfer of size bytes takes through this interface, issued against the
// layer owning path by procs cooperating processes. bbNodes carries the
// job's burst-buffer allocation span (0 = layer default); collective adds
// the MPI-IO collective synchronization term. This is the single
// interface-cost model shared by the interactive Client and the bulk
// workload generator.
func (cfg InterfaceConfig) TransferDuration(layer Layer, path string, rw RW, size units.ByteSize, procs, bbNodes int, collective bool, r *rand.Rand) float64 {
	return cfg.TransferDurationAt(layer, path, rw, size, procs, bbNodes, collective, math.NaN(), r)
}

// TransferDurationAt is TransferDuration at campaign time t: the layer's
// fault windows (if a schedule is attached) degrade bandwidth and latency
// for requests landing inside them. NaN t disables fault context.
func (cfg InterfaceConfig) TransferDurationAt(layer Layer, path string, rw RW, size units.ByteSize, procs, bbNodes int, collective bool, t float64, r *rand.Rand) float64 {
	if procs < 1 {
		procs = 1
	}
	if cfg.ParallelCap > 0 && procs > cfg.ParallelCap {
		procs = cfg.ParallelCap
	}
	var dur float64
	if cfg.BufferSize > 0 && size > cfg.BufferSize {
		// Buffered stream: the transfer proceeds in buffer-size chunks,
		// each paying damped layer latency plus the library's per-call
		// cost. Bandwidth-wise the chunks stream back to back.
		chunks := int((size + cfg.BufferSize - 1) / cfg.BufferSize)
		// One representative chunk at full latency; the rest damped.
		full := layerRequestAt(layer, path, rw, cfg.BufferSize, procs, bbNodes, t, r)
		perChunkLatency := layer.MetaLatency() * cfg.LatencyDamping
		bwTime := full - layer.MetaLatency() // pure transfer component
		if bwTime < 0 {
			bwTime = 0
		}
		perChunk := perChunkLatency + bwTime + cfg.PerCallOverhead
		if tail := size % cfg.BufferSize; tail != 0 {
			// The final chunk moves only the remainder: bill its bandwidth
			// term pro rata instead of charging a full buffer-size chunk.
			dur = full + float64(chunks-2)*perChunk +
				perChunkLatency + bwTime*float64(tail)/float64(cfg.BufferSize) + cfg.PerCallOverhead
		} else {
			dur = full + float64(chunks-1)*perChunk
		}
	} else {
		dur = layerRequestAt(layer, path, rw, size, procs, bbNodes, t, r)
	}
	dur += cfg.PerCallOverhead
	if collective {
		dur += cfg.CollectiveOverhead
	}
	if dur <= 0 {
		dur = 1e-9
	}
	return dur
}

// RetryPolicy bounds how an interface reacts to transient I/O errors and
// stalled operations from injected faults: a bounded number of retries, a
// fixed backoff charged before each retry, and a per-operation timeout after
// which an attempt is abandoned. The zero value never retries and never
// times out.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try.
	MaxRetries int
	// Backoff is the wall-clock pause in seconds charged before each retry.
	Backoff float64
	// OpTimeout is the per-attempt wall-clock bound in seconds; an attempt
	// predicted to exceed it is abandoned and retried (the final attempt
	// runs to completion — degrade to slow rather than fail). Zero or
	// negative disables the timeout.
	OpTimeout float64
}

// DefaultRetryPolicy mirrors production middleware defaults: three retries,
// 10 ms backoff, and a five-minute per-operation bound.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: 10e-3, OpTimeout: 300}
}

// TransferOutcome reports what one fault-aware transfer attempt chain did.
type TransferOutcome struct {
	// Duration is the total wall-clock cost in seconds, including abandoned
	// attempts and backoff pauses.
	Duration float64
	// Retries counts re-attempts after the first try.
	Retries int
	// Failed reports that the operation exhausted its retries on a
	// transient error and moved no data.
	Failed bool
	// Degraded reports that at least one attempt ran inside a fault window.
	Degraded bool
	// RetryTime is the share of Duration spent on abandoned attempts and
	// backoff pauses — time lost to faults rather than useful transfer.
	RetryTime float64
}

// TryTransfer is TransferDurationAt with graceful degradation: transient
// errors from the layer's fault schedule trigger bounded retries with
// backoff, attempts exceeding the policy's per-operation timeout are
// abandoned and retried, and the final attempt runs to completion unless an
// error fails it. With no schedule attached the single attempt always
// succeeds and the outcome reduces to TransferDurationAt.
func (cfg InterfaceConfig) TryTransfer(layer Layer, path string, rw RW, size units.ByteSize, procs, bbNodes int, collective bool, t float64, pol RetryPolicy, r *rand.Rand) TransferOutcome {
	var out TransferOutcome
	eff := EffectAt(layer, path, rw, size, procs, t)
	out.Degraded = eff.Degraded
	for attempt := 0; ; attempt++ {
		d := cfg.TransferDurationAt(layer, path, rw, size, procs, bbNodes, collective, t, r)
		errDrawn := eff.ErrorRate > 0 && r.Float64() < eff.ErrorRate
		timedOut := pol.OpTimeout > 0 && d > pol.OpTimeout
		last := attempt >= pol.MaxRetries
		switch {
		case !errDrawn && !timedOut:
			// Clean attempt: the transfer completes.
			out.Duration += d
			return out
		case last && errDrawn:
			// Retries exhausted on a transient error: the operation fails
			// after paying for the doomed attempt.
			charge := d
			if timedOut {
				charge = pol.OpTimeout
			}
			out.Duration += charge
			out.RetryTime += charge
			out.Failed = true
			return out
		case last:
			// Retries exhausted on a slow attempt: degrade to slow — let
			// the attempt run to completion rather than fail the job.
			out.Duration += d
			return out
		case errDrawn:
			// Transient error mid-flight: pay for the failed attempt plus
			// backoff, then retry.
			out.Duration += d + pol.Backoff
			out.RetryTime += d + pol.Backoff
		default:
			// Stalled attempt: abandon at the timeout plus backoff, retry.
			out.Duration += pol.OpTimeout + pol.Backoff
			out.RetryTime += pol.OpTimeout + pol.Backoff
		}
		out.Retries++
	}
}

// Client executes application I/O against a System through the three
// instrumented interfaces, advancing a simulated clock and reporting every
// operation to a Darshan runtime. One Client models one application
// execution (one Darshan log).
//
// Client is not safe for concurrent use; simulate ranks from one goroutine
// or use one Client per goroutine with distinct runtimes.
type Client struct {
	sys    *System
	rt     *darshan.Runtime
	r      *rand.Rand
	nprocs int

	// bbNodes is the DataWarp allocation span for this job (0 = default).
	bbNodes int

	posix, stdio, mpiio InterfaceConfig

	// retry bounds the reaction to injected transient errors and stalls.
	retry RetryPolicy
	// jobStart anchors the client's clock on the campaign timeline, so
	// layer fault windows align with simulated operation times.
	jobStart float64
	// fstats accumulates this execution's fault and retry footprint.
	fstats ClientFaultStats

	clock map[int32]float64
}

// ClientFaultStats summarizes one client execution's encounters with
// injected faults.
type ClientFaultStats struct {
	// OpsFailed counts operations that exhausted their retries and failed.
	OpsFailed int64
	// OpsRetried counts operations that needed at least one retry.
	OpsRetried int64
	// DegradedOps counts operations served inside a fault window.
	DegradedOps int64
	// RetrySeconds is wall-clock time lost to abandoned attempts and
	// backoff pauses.
	RetrySeconds float64
}

// OpError reports a simulated I/O operation that failed after exhausting
// its retries inside a fault window.
type OpError struct {
	Path    string
	RW      RW
	Retries int
}

func (e *OpError) Error() string {
	verb := "write"
	if e.RW == Read {
		verb = "read"
	}
	return fmt.Sprintf("iosim: %s %s failed after %d retries (injected fault)", verb, e.Path, e.Retries)
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithBurstBufferNodes sets the job's burst-buffer allocation span, as a
// DataWarp capacity directive would.
func WithBurstBufferNodes(n int) ClientOption {
	return func(c *Client) { c.bbNodes = n }
}

// NewClient builds a client for one application execution. The runtime's
// job header supplies the process count.
func NewClient(sys *System, rt *darshan.Runtime, r *rand.Rand, opts ...ClientOption) *Client {
	if sys == nil || rt == nil || r == nil {
		panic("iosim: NewClient requires non-nil system, runtime, and rng")
	}
	c := &Client{
		sys:    sys,
		rt:     rt,
		r:      r,
		nprocs: rt.Job().NProcs,
		posix:  DefaultPOSIX(),
		stdio:  DefaultSTDIO(),
		mpiio:  DefaultMPIIO(),
		retry:  DefaultRetryPolicy(),
		clock:  make(map[int32]float64),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Now returns rank's current simulated time in seconds since job start.
func (c *Client) Now(rank int32) float64 { return c.clock[rank] }

// Advance moves rank's clock forward by dt seconds of non-I/O work
// (compute phases between I/O phases).
func (c *Client) Advance(rank int32, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("iosim: cannot advance clock by %v", dt))
	}
	c.clock[rank] += dt
}

func (c *Client) config(m darshan.ModuleID) InterfaceConfig {
	switch m {
	case darshan.ModulePOSIX:
		return c.posix
	case darshan.ModuleSTDIO:
		return c.stdio
	case darshan.ModuleMPIIO:
		return c.mpiio
	default:
		panic(fmt.Sprintf("iosim: module %v is not an I/O interface", m))
	}
}

// transferDuration computes the wall-clock duration of one application-level
// transfer of size bytes through interface m by procs cooperating processes
// starting at local time start (campaign time jobStart+start).
func (c *Client) transferDuration(m darshan.ModuleID, path string, rw RW, size units.ByteSize, procs int, collective bool, start float64) float64 {
	return c.config(m).TransferDurationAt(c.sys.LayerFor(path), path, rw, size, procs, c.bbNodes, collective, c.jobStart+start, c.r)
}

// metaLatencyAt is the layer's per-operation metadata latency at campaign
// time jobStart+start, inflated when a metadata storm window is active.
func (c *Client) metaLatencyAt(layer Layer, path string, start float64) float64 {
	lat := layer.MetaLatency()
	if eff := EffectAt(layer, path, Read, 0, 1, c.jobStart+start); eff.LatencyScale > 1 {
		lat *= eff.LatencyScale
	}
	return lat
}

// Open opens path through interface m on rank, recording the operation.
// An MPI-IO open surfaces as a POSIX open underneath (paper §3.1), the same
// way MPI-IO transfers do.
func (c *Client) Open(m darshan.ModuleID, path string, rank int32) {
	layer := c.sys.LayerFor(path)
	start := c.clock[rank]
	dur := c.metaLatencyAt(layer, path, start) + c.config(m).PerCallOverhead
	c.clock[rank] = start + dur
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: rank, Kind: darshan.OpOpen,
		Start: start, End: start + dur})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path, Rank: rank,
			Kind: darshan.OpOpen, Start: start, End: start + dur})
	}
}

// Close closes path through interface m on rank, recording the operation.
// An MPI-IO close emits the matching POSIX close underneath.
func (c *Client) Close(m darshan.ModuleID, path string, rank int32) {
	start := c.clock[rank]
	dur := c.config(m).PerCallOverhead
	c.clock[rank] = start + dur
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: rank, Kind: darshan.OpClose,
		Start: start, End: start + dur})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path, Rank: rank,
			Kind: darshan.OpClose, Start: start, End: start + dur})
	}
}

// Read performs one read of size bytes at offset through interface m on
// rank and returns its duration in seconds.
func (c *Client) Read(m darshan.ModuleID, path string, rank int32, size units.ByteSize, offset int64) float64 {
	return c.rankTransfer(m, path, rank, Read, size, offset)
}

// Write performs one write of size bytes at offset through interface m on
// rank and returns its duration in seconds.
func (c *Client) Write(m darshan.ModuleID, path string, rank int32, size units.ByteSize, offset int64) float64 {
	return c.rankTransfer(m, path, rank, Write, size, offset)
}

// TryRead is Read with graceful degradation: transient errors from the
// layers' fault schedules trigger bounded retries per the client's
// RetryPolicy, and exhausted retries return an *OpError instead of
// panicking. The elapsed time (including retries) is always charged to the
// rank's clock; failed operations are excluded from the Darshan record
// because they moved no data.
func (c *Client) TryRead(m darshan.ModuleID, path string, rank int32, size units.ByteSize, offset int64) (float64, error) {
	return c.tryRankTransfer(m, path, rank, Read, size, offset)
}

// TryWrite is Write with graceful degradation; see TryRead.
func (c *Client) TryWrite(m darshan.ModuleID, path string, rank int32, size units.ByteSize, offset int64) (float64, error) {
	return c.tryRankTransfer(m, path, rank, Write, size, offset)
}

// FaultStats returns the execution's accumulated fault and retry footprint.
func (c *Client) FaultStats() ClientFaultStats { return c.fstats }

func (c *Client) tryRankTransfer(m darshan.ModuleID, path string, rank int32, rw RW, size units.ByteSize, offset int64) (float64, error) {
	start := c.clock[rank]
	out := c.config(m).TryTransfer(c.sys.LayerFor(path), path, rw, size, 1, c.bbNodes,
		false, c.jobStart+start, c.retry, c.r)
	c.clock[rank] = start + out.Duration
	if out.Degraded {
		c.fstats.DegradedOps++
	}
	if out.Retries > 0 {
		c.fstats.OpsRetried++
	}
	c.fstats.RetrySeconds += out.RetryTime
	if out.Failed {
		c.fstats.OpsFailed++
		return out.Duration, &OpError{Path: path, RW: rw, Retries: out.Retries}
	}
	kind := darshan.OpWrite
	if rw == Read {
		kind = darshan.OpRead
	}
	end := start + out.Duration
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: rank, Kind: kind,
		Size: size, Offset: offset, Start: start, End: end})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path, Rank: rank,
			Kind: kind, Size: size, Offset: offset, Start: start, End: end})
	}
	return out.Duration, nil
}

func (c *Client) rankTransfer(m darshan.ModuleID, path string, rank int32, rw RW, size units.ByteSize, offset int64) float64 {
	start := c.clock[rank]
	dur := c.transferDuration(m, path, rw, size, 1, false, start)
	c.clock[rank] = start + dur
	kind := darshan.OpWrite
	if rw == Read {
		kind = darshan.OpRead
	}
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: rank, Kind: kind,
		Size: size, Offset: offset, Start: start, End: start + dur})
	// An MPI-IO independent transfer surfaces as a POSIX operation of the
	// same shape underneath (paper §3.1).
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path, Rank: rank,
			Kind: kind, Size: size, Offset: offset, Start: start, End: start + dur})
	}
	return dur
}

// SharedTransfer performs one transfer against a file opened collectively by
// every rank of the job, recording a single pre-reduced rank −1 observation.
// size is the aggregate bytes moved by the whole job in this operation.
// It returns the wall-clock duration (the slowest rank's time).
//
// For MPI-IO with collective=true, collective buffering forms the aggregate
// into large well-formed requests; the matching POSIX-level observation is
// emitted with the aggregated shape, which is how collective aggregation
// turns many small application requests into few large system calls
// (Recommendation 2).
func (c *Client) SharedTransfer(m darshan.ModuleID, path string, rw RW, size units.ByteSize, collective bool) float64 {
	start := c.sharedClock()
	dur := c.transferDuration(m, path, rw, size, c.nprocs, collective, start)
	end := start + dur
	kind := darshan.OpWrite
	if rw == Read {
		kind = darshan.OpRead
	}
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: darshan.SharedRank, Kind: kind,
		Size: size, Offset: -1, Start: start, End: end, Collective: collective})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path,
			Rank: darshan.SharedRank, Kind: kind, Size: size, Offset: -1,
			Start: start, End: end})
	}
	c.setAllClocks(end)
	return dur
}

// SharedOpen opens path on all ranks at once (e.g. MPI_File_open or a
// coordinated POSIX open), recording a pre-reduced rank −1 observation.
func (c *Client) SharedOpen(m darshan.ModuleID, path string, collective bool) {
	layer := c.sys.LayerFor(path)
	start := c.sharedClock()
	dur := c.metaLatencyAt(layer, path, start) + c.config(m).PerCallOverhead
	if collective {
		dur += c.config(m).CollectiveOverhead
	}
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: darshan.SharedRank,
		Kind: darshan.OpOpen, Start: start, End: start + dur, Collective: collective})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path,
			Rank: darshan.SharedRank, Kind: darshan.OpOpen, Start: start, End: start + dur})
	}
	c.setAllClocks(start + dur)
}

// SharedClose closes a shared file on all ranks, emitting the matching
// POSIX close underneath MPI-IO.
func (c *Client) SharedClose(m darshan.ModuleID, path string) {
	start := c.sharedClock()
	dur := c.config(m).PerCallOverhead
	c.rt.Observe(darshan.Op{Module: m, Path: path, Rank: darshan.SharedRank,
		Kind: darshan.OpClose, Start: start, End: start + dur})
	if m == darshan.ModuleMPIIO {
		c.rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: path,
			Rank: darshan.SharedRank, Kind: darshan.OpClose, Start: start, End: start + dur})
	}
	c.setAllClocks(start + dur)
}

func (c *Client) sharedClock() float64 {
	var maxT float64
	for _, t := range c.clock {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

func (c *Client) setAllClocks(t float64) {
	for r := int32(0); r < int32(c.nprocs); r++ {
		if c.clock[r] < t {
			c.clock[r] = t
		}
	}
	// Shared-only workloads never touch per-rank clocks; keep a sentinel so
	// sharedClock sees progress even when nprocs clocks were never created.
	if c.clock[darshan.SharedRank] < t {
		c.clock[darshan.SharedRank] = t
	}
}
