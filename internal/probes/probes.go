// Package probes implements a TOKIO-style performance probe harness
// (Lockwood et al., "A Year in the Life of a Parallel File System" — the
// paper's reference [11]): a fixed set of benchmark-like I/O probes runs
// repeatedly against the simulated storage layers, and the delivered
// bandwidth time series exposes production variability — the third data
// source (sampling, S.D.) in the paper's Table 1 taxonomy, complementing
// the application-level Darshan logs and the server-side collectors.
package probes

import (
	"context"
	"fmt"
	"math"
	"sort"

	"iolayers/internal/iosim"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

// Probe is one fixed benchmark configuration, run identically every sample.
type Probe struct {
	// Name identifies the probe in results, e.g. "bulk-write".
	Name string
	// RW is the transfer direction.
	RW iosim.RW
	// Size is the per-sample transfer size.
	Size units.ByteSize
	// Procs is the process count the probe runs with.
	Procs int
}

// DefaultProbes returns the four-probe set TOKIO used: large streaming
// writes and reads (IOR-like) plus small-transfer probes in both
// directions.
func DefaultProbes() []Probe {
	return []Probe{
		{Name: "bulk-write", RW: iosim.Write, Size: 4 * units.GiB, Procs: 128},
		{Name: "bulk-read", RW: iosim.Read, Size: 4 * units.GiB, Procs: 128},
		{Name: "small-write", RW: iosim.Write, Size: 64 * units.KiB, Procs: 1},
		{Name: "small-read", RW: iosim.Read, Size: 64 * units.KiB, Procs: 1},
	}
}

// Sample is one probe execution's outcome.
type Sample struct {
	Probe  string
	Layer  string
	Index  int
	MBps   float64
	Second float64 // duration of this sample
}

// Harness runs probe sets against every layer of a system.
type Harness struct {
	sys    *iosim.System
	probes []Probe
	seed   uint64
}

// NewHarness builds a harness; an empty probe list gets DefaultProbes.
func NewHarness(sys *iosim.System, seed uint64, probes ...Probe) *Harness {
	if sys == nil {
		panic("probes: nil system")
	}
	if len(probes) == 0 {
		probes = DefaultProbes()
	}
	for _, p := range probes {
		if p.Size <= 0 || p.Procs <= 0 || p.Name == "" {
			panic(fmt.Sprintf("probes: invalid probe %+v", p))
		}
	}
	return &Harness{sys: sys, probes: probes, seed: seed}
}

// Run executes every probe `samples` times on every layer and returns the
// full time series, deterministic for a given harness seed.
func (h *Harness) Run(samples int) []Sample {
	out, _ := h.RunContext(context.Background(), samples)
	return out
}

// RunContext is Run under a context: cancellation stops between probe
// series and returns the samples collected so far alongside ctx's error.
func (h *Harness) RunContext(ctx context.Context, samples int) ([]Sample, error) {
	if samples <= 0 {
		panic(fmt.Sprintf("probes: samples %d must be positive", samples))
	}
	var out []Sample
	for li, layer := range h.sys.Layers() {
		for pi, p := range h.probes {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r := stats.Stream(h.seed, uint64(li)*1000+uint64(pi))
			path := fmt.Sprintf("%s/probe/%s.dat", layer.Mount(), p.Name)
			for s := 0; s < samples; s++ {
				dur := layer.Transfer(path, p.RW, p.Size, p.Procs, r)
				out = append(out, Sample{
					Probe:  p.Name,
					Layer:  layer.Name(),
					Index:  s,
					MBps:   float64(p.Size) / dur / 1e6,
					Second: dur,
				})
			}
		}
	}
	return out, nil
}

// Variability summarizes one (probe, layer) series the way TOKIO reports
// performance variation on production systems.
type Variability struct {
	Probe string
	Layer string
	Box   stats.Summary
	// CoV is the coefficient of variation (stddev/mean) of delivered MB/s.
	CoV float64
	// P95OverP5 is the ratio of the 95th to 5th percentile — the spread a
	// user experiences between a lucky and an unlucky run.
	P95OverP5 float64
	// FractionOfBest is the median divided by the best observed sample:
	// how far below its own demonstrated capability the system usually runs.
	FractionOfBest float64
}

// Summarize reduces a sample series to per-(probe, layer) variability rows,
// sorted by layer then probe.
func Summarize(samples []Sample) []Variability {
	type key struct{ probe, layer string }
	series := map[key][]float64{}
	for _, s := range samples {
		k := key{s.Probe, s.Layer}
		series[k] = append(series[k], s.MBps)
	}
	keys := make([]key, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].probe < keys[j].probe
	})
	out := make([]Variability, 0, len(keys))
	for _, k := range keys {
		vals := series[k]
		box := stats.Summarize(vals)
		v := Variability{Probe: k.probe, Layer: k.layer, Box: box}
		if box.N > 1 && box.Mean > 0 {
			var ss float64
			for _, x := range vals {
				d := x - box.Mean
				ss += d * d
			}
			v.CoV = math.Sqrt(ss/float64(box.N-1)) / box.Mean
		}
		if box.N > 1 {
			p5 := stats.Quantile(vals, 0.05)
			p95 := stats.Quantile(vals, 0.95)
			if p5 > 0 {
				v.P95OverP5 = p95 / p5
			}
		}
		if box.Max > 0 {
			v.FractionOfBest = box.Median / box.Max
		}
		out = append(out, v)
	}
	return out
}

// Render formats variability rows as a text table.
func Render(system string, rows []Variability) string {
	out := fmt.Sprintf("TOKIO-style probes (%s): delivered MB/s variability\n", system)
	out += fmt.Sprintf("%-14s %-12s %8s %10s %10s %8s %9s %8s\n",
		"Layer", "Probe", "N", "Median", "Max", "CoV", "p95/p5", "med/max")
	for _, v := range rows {
		out += fmt.Sprintf("%-14s %-12s %8d %10.1f %10.1f %8.2f %9.2f %8.2f\n",
			v.Layer, v.Probe, v.Box.N, v.Box.Median, v.Box.Max,
			v.CoV, v.P95OverP5, v.FractionOfBest)
	}
	return out
}
