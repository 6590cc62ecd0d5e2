// Package datawarp models a Cray DataWarp burst buffer in the style of
// Cori's CBB (paper §2.1.2): flash devices attached to dedicated service
// (burst-buffer) nodes inside the machine, allocated to jobs in fixed-size
// grains, with scheduler-integrated directives that provision capacity and
// stage directories or files in and out of the parallel file system around
// the job's lifetime without user involvement.
package datawarp

import (
	"fmt"
	"math"
	"math/rand/v2"

	"iolayers/internal/iosim"
	"iolayers/internal/iosim/faults"
	"iolayers/internal/iosim/serverstats"
	"iolayers/internal/units"
)

// Config describes a DataWarp deployment.
type Config struct {
	// Name of the layer, e.g. "CBB".
	Name string
	// MountPrefix under which job allocations are mounted,
	// e.g. "/var/opt/cray/dws".
	MountPrefix string
	// BBNodes is the number of burst-buffer service nodes (288 on Cori).
	BBNodes int
	// PerBBNodeBandwidth is one burst-buffer node's bandwidth in bytes/s.
	// Cori's 1.7 TB/s aggregate over 288 nodes gives ≈5.9 GB/s.
	PerBBNodeBandwidth float64
	// Granularity is the capacity grain per allocated node (Cori pools used
	// ≈20 GiB grains); a job's capacity request determines its node span.
	Granularity units.ByteSize
	// DefaultNodes is the node span of a job that requests no explicit
	// capacity.
	DefaultNodes int
	// PerProcessBandwidth caps one client process's injection rate.
	PerProcessBandwidth float64
	// Latency is the per-operation latency in seconds (DVS forwarding to
	// the service nodes sits between NVMe and PFS latency).
	Latency float64
	// Variability models sharing of burst-buffer nodes among jobs.
	Variability iosim.Variability
}

// CoriCBB returns the configuration of Cori's burst buffer with the paper's
// figures: 1.8 PB raw, 1.7 TB/s peak.
func CoriCBB() Config {
	return Config{
		Name:                "CBB",
		MountPrefix:         "/var/opt/cray/dws",
		BBNodes:             288,
		PerBBNodeBandwidth:  1.7e12 / 288,
		Granularity:         20 * units.GiB,
		DefaultNodes:        2,
		PerProcessBandwidth: 1.5e9,
		Latency:             120e-6,
		Variability: iosim.Variability{
			UtilizationMean:   0.15,
			UtilizationSpread: 0.15,
			Sigma:             0.35,
		},
	}
}

// FS is a DataWarp layer instance. It implements iosim.Layer. Per-job
// allocations are modeled by AllocationFor, derived from the job's
// directives; Transfer uses the default span, and TransferAlloc lets the
// caller apply a specific allocation.
type FS struct {
	cfg Config
	// collector, when non-nil, receives burst-buffer node load records.
	// Set it before issuing traffic; it is read concurrently afterwards.
	collector *serverstats.Collector
	// faults, when non-nil, degrades transfers inside scheduled fault
	// windows on the burst-buffer service nodes. Attach before traffic.
	faults *faults.Injector
}

// SetFaultSchedule binds a fault schedule to the burst-buffer node pool;
// nil detaches fault injection. Call before the layer serves traffic.
func (f *FS) SetFaultSchedule(s *faults.Schedule) {
	f.faults = faults.NewInjector(s, f.cfg.Name, f.cfg.BBNodes)
}

// FaultInjector returns the bound fault injector (nil when faults are off).
func (f *FS) FaultInjector() *faults.Injector { return f.faults }

// SetCollector attaches a statistics collector sized to the burst-buffer
// node pool. Call before the layer serves traffic.
func (f *FS) SetCollector(c *serverstats.Collector) { f.collector = c }

// NewCollector builds a collector with one slot per burst-buffer node.
func (f *FS) NewCollector() *serverstats.Collector {
	return serverstats.NewCollector(f.cfg.Name, f.cfg.BBNodes)
}

// New validates cfg and builds the layer.
func New(cfg Config) *FS {
	if cfg.BBNodes <= 0 || cfg.PerBBNodeBandwidth <= 0 || cfg.Granularity <= 0 ||
		cfg.DefaultNodes <= 0 || cfg.PerProcessBandwidth <= 0 || cfg.MountPrefix == "" {
		panic(fmt.Sprintf("datawarp: invalid config %+v", cfg))
	}
	return &FS{cfg: cfg}
}

// Name returns the layer name.
func (f *FS) Name() string { return f.cfg.Name }

// Kind reports InSystem.
func (f *FS) Kind() iosim.LayerKind { return iosim.InSystem }

// Mount returns the mount prefix.
func (f *FS) Mount() string { return f.cfg.MountPrefix }

// Peak returns the aggregate peak bandwidth.
func (f *FS) Peak(iosim.RW) float64 {
	return f.cfg.PerBBNodeBandwidth * float64(f.cfg.BBNodes)
}

// MetaLatency returns the per-operation latency.
func (f *FS) MetaLatency() float64 { return f.cfg.Latency }

// AllocationFor returns the burst-buffer node span granted for a capacity
// request: capacity rounded up to grains, one node per grain, at least one,
// at most the pool. Zero capacity yields the default span.
func (f *FS) AllocationFor(capacity units.ByteSize) int {
	if capacity <= 0 {
		return f.cfg.DefaultNodes
	}
	grains := int((capacity + f.cfg.Granularity - 1) / f.cfg.Granularity)
	return min(max(grains, 1), f.cfg.BBNodes)
}

// startNode derives a job allocation's starting burst-buffer node from the
// file path, so different allocations land on different node spans.
func startNode(path string) int {
	start := 0
	for i := 0; i < len(path); i++ {
		start = start*31 + int(path[i])
	}
	if start < 0 {
		start = -start
	}
	return start
}

// Transfer implements iosim.Layer using the default allocation span and no
// campaign-time context (injected fault windows never apply).
func (f *FS) Transfer(path string, rw iosim.RW, size units.ByteSize, procs int, r *rand.Rand) float64 {
	return f.TransferAllocAt(path, rw, size, procs, f.cfg.DefaultNodes, math.NaN(), r)
}

// TransferAt implements iosim.TimedLayer using the default allocation span.
func (f *FS) TransferAt(path string, rw iosim.RW, size units.ByteSize, procs int, t float64, r *rand.Rand) float64 {
	return f.TransferAllocAt(path, rw, size, procs, f.cfg.DefaultNodes, t, r)
}

// TransferAlloc is Transfer with an explicit burst-buffer node span, for
// jobs whose directives requested more capacity (and therefore bandwidth).
func (f *FS) TransferAlloc(path string, rw iosim.RW, size units.ByteSize, procs, bbNodes int, r *rand.Rand) float64 {
	return f.TransferAllocAt(path, rw, size, procs, bbNodes, math.NaN(), r)
}

// TransferAllocAt is TransferAlloc at campaign time t: the allocation's
// node span can sit inside a fault window (service-node outage, flash
// slowdown), degrading the delivered bandwidth.
func (f *FS) TransferAllocAt(path string, rw iosim.RW, size units.ByteSize, procs, bbNodes int, t float64, r *rand.Rand) float64 {
	if procs < 1 {
		procs = 1
	}
	if bbNodes < 1 {
		bbNodes = 1
	}
	if bbNodes > f.cfg.BBNodes {
		bbNodes = f.cfg.BBNodes
	}
	clientBW := math.Min(f.cfg.PerProcessBandwidth*float64(procs), f.Peak(rw))
	serverBW := f.cfg.PerBBNodeBandwidth * float64(bbNodes)
	start := startNode(path)
	eff := f.faults.Effect(t, start, bbNodes)
	dur := iosim.TransferTimeFaulty(size, f.cfg.Latency, clientBW, serverBW, f.cfg.Variability, eff, r)
	if f.collector != nil {
		f.collector.Record(start, bbNodes, int64(size), dur)
		if eff.Degraded {
			f.collector.RecordDegraded(start, bbNodes, dur)
		}
	}
	return dur
}

// FaultEffectAt implements iosim.Faulted: the effect a request of this
// shape would see at campaign time t, using the default allocation span.
func (f *FS) FaultEffectAt(path string, rw iosim.RW, size units.ByteSize, procs int, t float64) faults.Effect {
	return f.faults.Effect(t, startNode(path), f.cfg.DefaultNodes)
}

// Stage returns the seconds needed to move size bytes between this burst
// buffer and the given PFS layer, as the scheduler-driven stage-in/out does:
// the slower of the two sides bounds the copy, and the copy runs from the
// service nodes at full allocation width rather than through compute-node
// clients.
func (f *FS) Stage(pfs iosim.Layer, size units.ByteSize, bbNodes int, r *rand.Rand) float64 {
	if size < 0 {
		panic(fmt.Sprintf("datawarp: negative stage size %d", size))
	}
	if bbNodes < 1 {
		bbNodes = f.cfg.DefaultNodes
	}
	if bbNodes > f.cfg.BBNodes {
		bbNodes = f.cfg.BBNodes
	}
	bbBW := f.cfg.PerBBNodeBandwidth * float64(bbNodes)
	// The PFS side of a staging copy behaves like a well-formed large
	// streaming transfer issued by the service nodes.
	pfsBW := pfs.Peak(iosim.Read) * 0.10 // a staging copy cannot monopolize the PFS
	bw := math.Min(bbBW, pfsBW)
	eff := f.cfg.Variability.Available(r)
	return f.cfg.Latency + pfs.MetaLatency() + float64(size)/(bw*eff)
}
