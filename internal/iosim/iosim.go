// Package iosim models multi-layer supercomputer I/O subsystems with
// first-order analytic performance models: enough fidelity to reproduce the
// delivered-bandwidth distributions the paper reports (who wins, by what
// factor, and where size-dependent effects appear), without simulating
// individual disk blocks.
//
// A System couples two Layer implementations — a parallel file system and an
// in-system storage layer — mirroring the architecture in the paper's
// Figure 1. Layer implementations live in the subpackages gpfs, lustre,
// nodelocal, and datawarp. The Client type in this package executes
// application I/O against a System through a chosen interface (POSIX,
// MPI-IO, or STDIO) and feeds every operation to a Darshan runtime, exactly
// as the instrumented production applications did.
package iosim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"iolayers/internal/iosim/faults"
	"iolayers/internal/iosim/serverstats"
	"iolayers/internal/units"
)

// RW distinguishes the two data-transfer directions.
type RW int

// Transfer directions.
const (
	Read RW = iota
	Write
)

// String names the direction.
func (rw RW) String() string {
	if rw == Read {
		return "read"
	}
	return "write"
}

// LayerKind classifies a layer's position in the hierarchy.
type LayerKind int

// The two layer positions in the paper's two-layer subsystems.
const (
	ParallelFS LayerKind = iota
	InSystem
)

// String names the layer kind.
func (k LayerKind) String() string {
	if k == ParallelFS {
		return "PFS"
	}
	return "in-system"
}

// Layer is one storage layer of a supercomputer I/O subsystem.
//
// Transfer returns the wall-clock seconds for one request of the given size
// issued against path with procs cooperating client processes. The model
// includes per-layer latency, striping/server parallelism, production-load
// contention, and run-to-run variability; it is deterministic for a given
// *rand.Rand stream.
type Layer interface {
	// Name is a short human-readable identifier, e.g. "Alpine" or "SCNL".
	Name() string
	// Kind reports whether this is the PFS or the in-system layer.
	Kind() LayerKind
	// Mount is the path prefix files on this layer live under.
	Mount() string
	// Peak returns the layer's aggregate peak bandwidth in bytes/second.
	Peak(rw RW) float64
	// MetaLatency returns the per-operation metadata latency in seconds.
	MetaLatency() float64
	// Transfer returns the service time in seconds for one request.
	Transfer(path string, rw RW, size units.ByteSize, procs int, r *rand.Rand) float64
}

// Variability models production-load effects shared by all layer
// implementations: a background utilization that steals a fraction of peak
// bandwidth, plus a lognormal run-to-run noise term. The zero value means a
// perfectly idle, perfectly repeatable system.
type Variability struct {
	// UtilizationMean is the mean fraction (0–1) of the layer's bandwidth
	// consumed by other tenants at any moment.
	UtilizationMean float64
	// UtilizationSpread is the half-width of the uniform band around the
	// mean from which per-request utilization is drawn.
	UtilizationSpread float64
	// Sigma is the lognormal noise on delivered bandwidth (log-space
	// standard deviation).
	Sigma float64
}

// Available draws the fraction of bandwidth available to this request and a
// multiplicative noise factor. The product scales deliverable bandwidth.
func (v Variability) Available(r *rand.Rand) float64 {
	util := v.UtilizationMean
	if v.UtilizationSpread > 0 {
		util += (2*r.Float64() - 1) * v.UtilizationSpread
	}
	if util < 0 {
		util = 0
	}
	if util > 0.98 {
		util = 0.98
	}
	share := 1 - util
	avail := share
	if v.Sigma > 0 {
		avail *= math.Exp(v.Sigma * r.NormFloat64())
	}
	// Clamp: noise never yields more than 1.5× the un-contended share —
	// relative to the share itself, so a 98%-utilized layer cannot draw
	// near-idle bandwidth — nor less than an absolute 1% of peak, keeping
	// the model inside physical plausibility.
	if avail > 1.5*share {
		avail = 1.5 * share
	}
	if avail < 0.01 {
		avail = 0.01
	}
	return avail
}

// System is one supercomputer and its two-layer I/O subsystem.
type System struct {
	// Name is the machine name, e.g. "Summit" or "Cori".
	Name string
	// PFS is the parallel-file-system layer (Alpine, Cori Scratch).
	PFS Layer
	// InSystem is the in-system storage layer (SCNL, CBB).
	InSystem Layer
	// ProcsPerNode converts process counts to node counts for node-hour
	// accounting (42 on Summit's 2 × 21-core POWER9, 64 on Cori KNL).
	ProcsPerNode int
}

// LayerFor routes a path to the layer whose mount prefix it carries. It
// panics on a path outside both mounts — synthetic workloads must always
// place files on a modeled layer, so an unroutable path is a generator bug.
func (s *System) LayerFor(path string) Layer {
	switch {
	case strings.HasPrefix(path, s.PFS.Mount()):
		return s.PFS
	case strings.HasPrefix(path, s.InSystem.Mount()):
		return s.InSystem
	default:
		panic(fmt.Sprintf("iosim: path %q is on neither %q nor %q",
			path, s.PFS.Mount(), s.InSystem.Mount()))
	}
}

// Layers returns the two layers in (PFS, in-system) order.
func (s *System) Layers() []Layer { return []Layer{s.PFS, s.InSystem} }

// Instrumented is implemented by layers that can expose server-side load
// statistics (the system-level vantage point of the paper's Table 1).
// NewCollector returns a collector sized to the layer's server pool;
// SetCollector attaches it so subsequent Transfers record into it.
type Instrumented interface {
	NewCollector() *serverstats.Collector
	SetCollector(*serverstats.Collector)
}

// FaultAware is implemented by layers that accept a fault-injection
// schedule. SetFaultSchedule binds the schedule to the layer's server pool;
// a nil schedule detaches fault injection. Call before generating traffic —
// the binding is not synchronized with concurrent Transfers.
type FaultAware interface {
	SetFaultSchedule(*faults.Schedule)
}

// Faulted is implemented by layers that expose their bound fault injector,
// so the client retry path can draw transient errors and the workload
// generator can classify requests by fault state.
type Faulted interface {
	FaultInjector() *faults.Injector
	// FaultEffectAt resolves the fault effect one request of the given
	// shape would see at campaign time t, without issuing it.
	FaultEffectAt(path string, rw RW, size units.ByteSize, procs int, t float64) faults.Effect
}

// TimedLayer is implemented by layers whose Transfer can be evaluated at an
// absolute campaign time, the hook fault windows need. Layer.Transfer is
// equivalent to TransferAt with a NaN time (no windows apply).
type TimedLayer interface {
	TransferAt(path string, rw RW, size units.ByteSize, procs int, t float64, r *rand.Rand) float64
}

// AttachFaults binds a fault schedule to every fault-aware layer of the
// system. Call before generating traffic. A nil schedule detaches faults.
func AttachFaults(sys *System, s *faults.Schedule) {
	for _, layer := range sys.Layers() {
		if fa, ok := layer.(FaultAware); ok {
			fa.SetFaultSchedule(s)
		}
	}
}

// EffectAt resolves the fault effect a request would see on a layer, or the
// zero effect for layers without fault awareness.
func EffectAt(layer Layer, path string, rw RW, size units.ByteSize, procs int, t float64) faults.Effect {
	if f, ok := layer.(Faulted); ok {
		return f.FaultEffectAt(path, rw, size, procs, t)
	}
	return faults.ZeroEffect()
}

// AttachCollectors creates and attaches a server-side collector to every
// instrumented layer of the system, returning them keyed by layer name.
// Call before generating traffic.
func AttachCollectors(sys *System) map[string]*serverstats.Collector {
	out := map[string]*serverstats.Collector{}
	for _, layer := range sys.Layers() {
		if inst, ok := layer.(Instrumented); ok {
			c := inst.NewCollector()
			inst.SetCollector(c)
			out[layer.Name()] = c
		}
	}
	return out
}

// TransferTimeFaulty is the shared service-time skeleton used by the layer
// implementations: latency plus size over delivered bandwidth, where
// delivered bandwidth is the minimum of the clients' injection capability
// and the servers' parallel capability, scaled by contention/noise. An
// injected fault effect's bandwidth scale degrades the server side (slow or
// dark servers), and its latency scale inflates the per-operation latency
// (metadata storms); faults.ZeroEffect() changes neither.
func TransferTimeFaulty(size units.ByteSize, latency, clientBW, serverBW float64, v Variability, eff faults.Effect, r *rand.Rand) float64 {
	if size < 0 {
		panic(fmt.Sprintf("iosim: negative transfer size %d", size))
	}
	if eff.BWScale > 0 {
		serverBW *= eff.BWScale
	}
	if eff.LatencyScale > 1 {
		latency *= eff.LatencyScale
	}
	bw := math.Min(clientBW, serverBW)
	if bw <= 0 {
		panic(fmt.Sprintf("iosim: non-positive bandwidth (client %v, server %v)", clientBW, serverBW))
	}
	bw *= v.Available(r)
	return latency + float64(size)/bw
}
