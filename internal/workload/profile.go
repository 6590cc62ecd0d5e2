// Package workload synthesizes production I/O campaigns whose statistical
// shape matches the paper's published year-long Darshan collections: Summit
// 2020 and Cori 2019.
//
// The real traces are closed; this package is the substitution documented in
// DESIGN.md §2. Every published marginal the paper reports — job and log
// populations (Table 2), per-layer file counts and read/write volumes
// (Table 3), >1 TB tail files (Table 4), per-job layer exclusivity
// (Table 5), per-layer interface mix (Table 6), transfer-size CDFs
// (Figures 3, 9), request-size histograms (Figures 4, 5), file
// classification (Figures 6, 8), and domain mixes (Figures 7, 10) — has a
// corresponding knob in Profile, and the two shipped profiles are calibrated
// to those numbers. Generated campaigns run at a configurable scale;
// ratios and distribution shapes are preserved, absolute totals are not.
package workload

import (
	"math"
	"math/rand/v2"

	"iolayers/internal/darshan"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Class is the paper's per-file I/O classification (§3.2.2): every file in
// a log is read-only, write-only, or read-write.
type Class int

// File classes.
const (
	ReadOnly Class = iota
	ReadWrite
	WriteOnly
)

// String names the class as the paper's figures do.
func (c Class) String() string {
	switch c {
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	case WriteOnly:
		return "write-only"
	default:
		return "class(?)"
	}
}

// JobLayerClass is a job's storage-layer footprint (Table 5): files
// exclusively on the PFS, exclusively on the in-system layer, or on both.
type JobLayerClass int

// Job layer classes.
const (
	PFSOnly JobLayerClass = iota
	InSystemOnly
	BothLayers
)

// String names the job layer class.
func (c JobLayerClass) String() string {
	switch c {
	case PFSOnly:
		return "pfs-only"
	case InSystemOnly:
		return "in-system-only"
	case BothLayers:
		return "both"
	default:
		return "jobclass(?)"
	}
}

// RequestSizes is a distribution over the ten Darshan access-size bins:
// Weights[i] is the relative share of requests landing in bin i, and sizes
// within a bin are drawn log-uniformly. This directly encodes the
// request-size CDFs of the paper's Figures 4 and 5.
type RequestSizes struct {
	Weights [units.NumRequestBins]float64
}

// Sample draws one request size.
func (rs RequestSizes) Sample(r *rand.Rand) units.ByteSize {
	total := 0.0
	for _, w := range rs.Weights {
		total += w
	}
	u := r.Float64() * total
	bin := units.RequestBin(0)
	for i, w := range rs.Weights {
		if u < w {
			bin = units.RequestBin(i)
			break
		}
		u -= w
		bin = units.RequestBin(i) // fall through to last on rounding
	}
	return SampleWithinBin(r, bin)
}

// SampleWithinBin draws a request size log-uniformly within one Darshan
// access-size bin. The unbounded top bin is sampled over 1–4 GiB, the range
// real >1 GiB requests occupy.
func SampleWithinBin(r *rand.Rand, bin units.RequestBin) units.ByteSize {
	lo := float64(1)
	if bin > 0 {
		// Bins are (prevEdge, edge]; start just above the previous edge so
		// integer truncation cannot land the sample in the bin below.
		lo = float64(units.RequestBin(bin-1).UpperEdge()) + 1
	}
	hi := float64(bin.UpperEdge())
	if bin == units.Bin1GPlus {
		hi = 4 * float64(units.GiB)
	}
	return logUniform(r, lo, hi)
}

func logUniform(r *rand.Rand, lo, hi float64) units.ByteSize {
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return units.ByteSize(lo)
	}
	// exp(U[ln lo, ln hi]) via lo*(hi/lo)^u.
	u := r.Float64()
	v := lo * math.Pow(hi/lo, u)
	return units.ByteSize(v)
}

// InterfaceProfile describes the files one I/O interface manages on one
// storage layer: their class mix and per-direction per-file transfer-size
// distributions (including heavy tails for the >1 TB population).
type InterfaceProfile struct {
	// ClassMix draws read-only / read-write / write-only.
	ClassMix *stats.Categorical[Class]
	// ReadSize and WriteSize draw a file's aggregate transferred bytes in
	// the respective direction (used when the class includes it).
	ReadSize  stats.Sampler
	WriteSize stats.Sampler
}

// LayerProfile describes one storage layer's file population.
type LayerProfile struct {
	// FilesPerLog draws the number of files a log touches on this layer
	// (for jobs that use the layer at all).
	FilesPerLog stats.Sampler
	// FilesPerJob, when non-nil, replaces FilesPerLog: the job's whole
	// file population on this layer is drawn once and spread evenly over
	// its logs — the pattern of campaigns that revisit one dataset on
	// every execution (e.g. ML ingest from node-local NVMe). Besides being
	// realistic for in-system layers, it decouples the layer's totals from
	// the heavy-tailed logs-per-job draw, which matters for the stability
	// of small synthetic campaigns.
	FilesPerJob stats.Sampler
	// InterfaceMix draws the managing interface per file (Table 6).
	InterfaceMix *stats.Categorical[darshan.ModuleID]
	// Interfaces maps each interface to its file population profile.
	Interfaces map[darshan.ModuleID]InterfaceProfile
	// ReadReq and WriteReq are the request-size histograms (Figure 4).
	ReadReq, WriteReq RequestSizes
	// LargeJobReadReq/LargeJobWriteReq, when non-nil, replace the request
	// histograms for jobs with more than LargeJobProcs processes
	// (Figure 5 observes more large requests to the in-system layers).
	LargeJobReadReq, LargeJobWriteReq *RequestSizes
	// SharedFileFrac is the fraction of files opened collectively by all
	// ranks (recorded as rank −1; the population behind Figures 11–12).
	SharedFileFrac float64
	// CollectiveFrac is the fraction of MPI-IO files using collective I/O.
	CollectiveFrac float64
}

// Profile is a complete system campaign description.
type Profile struct {
	// SystemName is "Summit" or "Cori"; it selects the iosim.System.
	SystemName string
	// Year and DarshanVersion reproduce Table 2's provenance columns.
	Year           int
	DarshanVersion string

	// Jobs is the full-scale job count (281.6K for Summit 2020, 749.5K for
	// Cori 2019); campaigns multiply this by their scale factor.
	Jobs int
	// Users is the approximate distinct-user population.
	Users int

	// LogsPerJob draws how many Darshan logs (application executions) one
	// job produces; heavy-tailed (1–34341 on Summit, 1–9999 on Cori).
	LogsPerJob stats.Sampler
	// MaxLogsPerJob caps LogsPerJob (the paper's observed maxima).
	MaxLogsPerJob int
	// NProcs draws a job's process count.
	NProcs stats.Sampler
	// LargeJobProcs is the paper's large-job threshold (1024).
	LargeJobProcs int
	// RuntimeSeconds draws a log's instrumented duration.
	RuntimeSeconds stats.Sampler

	// Domains is the science-domain mix (Figures 7 and 10).
	Domains *stats.Categorical[string]
	// DomainCoverage is the probability that a job can be joined to a
	// domain at all (0.9002 on Cori, where Slurm does not record domains
	// and the NEWT project join has gaps, §3.3.2).
	DomainCoverage float64
	// DomainVolumeScale multiplies a domain's transfer sizes, letting
	// physics dominate data movement as observed on both systems.
	DomainVolumeScale map[string]float64
	// InSystemDomainClass forces the file class for a domain's in-system
	// files (Summit: biology and materials read-only, chemistry
	// write-only, §3.2.2).
	InSystemDomainClass map[string]Class

	// MonthlyActivity weights job submissions by calendar month (January
	// first). A zero array means uniform activity. Production systems show
	// allocation-cycle seasonality: quiet January ramp-up, end-of-allocation
	// crunches.
	MonthlyActivity [12]float64

	// TunerFraction is the share of users who learn to tune their I/O
	// mid-year: their second-half jobs stripe large Lustre files widely and
	// favor collective MPI-IO. The paper's §5 future work asks how many
	// users tune their I/O across executions; the synthetic ground truth
	// here lets the detection analysis be validated end to end.
	TunerFraction float64

	// JobClassMix draws PFS-only / in-system-only / both (Table 5).
	JobClassMix *stats.Categorical[JobLayerClass]

	// PFS and InSystem describe the two layers' file populations.
	PFS, InSystem LayerProfile

	// StdioExtensions weights the file extensions STDIO files carry
	// (≈70% .rst/.dat/.vol on Cori, §3.3.2).
	StdioExtensions *stats.Categorical[string]
	// DataExtensions weights POSIX/MPI-IO file extensions.
	DataExtensions *stats.Categorical[string]
}
