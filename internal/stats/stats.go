// Package stats provides the small set of descriptive statistics the study
// needs — empirical quantiles, five-number boxplot summaries, binned
// histograms, and cumulative distribution functions over ordered bins — and
// the seedable random distributions the workload generator draws from
// (dist.go).
//
// All functions are deterministic and allocate only what they return, so
// they are safe to call from concurrent analysis workers on disjoint data.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-th empirical quantile (0 ≤ q ≤ 1) of values using
// linear interpolation between closest ranks (the "R-7" rule used by most
// statistics packages). The input need not be sorted; it is not modified.
// Quantile panics if values is empty or q is outside [0, 1].
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile %v out of range [0,1]", q))
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the R-7 quantile of an ascending-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	// Convex combination rather than lo + frac*(hi-lo): the difference of
	// two finite float64s can overflow to ±Inf even when the interpolated
	// value is representable.
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a five-number boxplot summary plus mean and count. It is the
// per-bin statistic behind the paper's Figures 11 and 12.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary of values. It returns a zero Summary (N=0)
// for empty input, which callers should render as a missing boxplot — the
// paper's figures likewise omit boxes for empty size bins.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.50),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
	}
}

// String renders the summary as "n=… min=… q1=… med=… q3=… max=…".
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0 (empty)"
	}
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Histogram is a set of counts over a fixed number of ordered bins. The bin
// semantics (edges, labels) are owned by the caller; Histogram only tracks
// counts. The zero value of a Histogram with Counts pre-sized is not useful;
// construct with NewHistogram.
type Histogram struct {
	Counts []uint64
}

// NewHistogram returns a histogram with n zeroed bins. It panics if n <= 0.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram(%d): need at least one bin", n))
	}
	return &Histogram{Counts: make([]uint64, n)}
}

// Add increments bin i by delta. It panics on an out-of-range bin.
func (h *Histogram) Add(i int, delta uint64) {
	h.Counts[i] += delta
}

// Total returns the sum of all bin counts.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Merge adds other's counts into h. It panics if the bin counts differ —
// merging histograms over different bin taxonomies is always a bug.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.Counts) != len(other.Counts) {
		panic(fmt.Sprintf("stats: merging histograms with %d and %d bins",
			len(h.Counts), len(other.Counts)))
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
}

// CDF returns the cumulative fraction (0–1) of mass at or below each bin,
// i.e. cdf[i] = sum(counts[0..i]) / total. An all-zero histogram yields an
// all-zero CDF rather than NaNs, so empty series render as flat lines.
func (h *Histogram) CDF() []float64 {
	cdf := make([]float64, len(h.Counts))
	total := h.Total()
	if total == 0 {
		return cdf
	}
	var running uint64
	for i, c := range h.Counts {
		running += c
		cdf[i] = float64(running) / float64(total)
	}
	return cdf
}

// Fractions returns each bin's share (0–1) of the total. An all-zero
// histogram yields all-zero fractions.
func (h *Histogram) Fractions() []float64 {
	fr := make([]float64, len(h.Counts))
	total := h.Total()
	if total == 0 {
		return fr
	}
	for i, c := range h.Counts {
		fr[i] = float64(c) / float64(total)
	}
	return fr
}
