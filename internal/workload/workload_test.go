package workload

import (
	"math/rand/v2"
	"strings"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/stats"
	"iolayers/internal/units"
)

func TestClassStrings(t *testing.T) {
	if ReadOnly.String() != "read-only" || ReadWrite.String() != "read-write" ||
		WriteOnly.String() != "write-only" {
		t.Error("class strings wrong")
	}
	if PFSOnly.String() != "pfs-only" || InSystemOnly.String() != "in-system-only" ||
		BothLayers.String() != "both" {
		t.Error("job class strings wrong")
	}
}

func TestRequestSizesRespectBins(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	// All weight on one bin: every sample must land in it.
	for bin := 0; bin < units.NumRequestBins; bin++ {
		var rs RequestSizes
		rs.Weights[bin] = 1
		for i := 0; i < 200; i++ {
			size := rs.Sample(r)
			if got := units.RequestBinFor(size); int(got) != bin {
				t.Fatalf("bin %d: sample %d landed in %v", bin, size, got)
			}
		}
	}
}

func TestRequestSizesMixture(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	rs := RequestSizes{}
	rs.Weights[0] = 45
	rs.Weights[2] = 45
	rs.Weights[4] = 10
	counts := map[units.RequestBin]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[units.RequestBinFor(rs.Sample(r))]++
	}
	f0 := float64(counts[units.Bin0To100]) / float64(n)
	f2 := float64(counts[units.Bin1KTo10K]) / float64(n)
	if f0 < 0.42 || f0 > 0.48 || f2 < 0.42 || f2 > 0.48 {
		t.Errorf("bin fractions %.3f/%.3f, want ≈0.45 each", f0, f2)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	sys := systems.NewSummit()
	bad := []Config{
		{Seed: 1, JobScale: 0, FileScale: 0.1},
		{Seed: 1, JobScale: 1.5, FileScale: 0.1},
		{Seed: 1, JobScale: 0.1, FileScale: 0},
		{Seed: 1, JobScale: 0.1, FileScale: 2},
	}
	for _, cfg := range bad {
		if _, err := NewGenerator(Summit(), sys, cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
	if _, err := NewGenerator(Summit(), nil, DefaultConfig()); err == nil {
		t.Error("nil system: expected error")
	}
	g, err := NewGenerator(Summit(), sys, DefaultConfig())
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if g.Jobs() != 282 { // 281600 × 0.001, rounded
		t.Errorf("Jobs() = %d, want 282", g.Jobs())
	}
}

func TestGenerateJobDeterministic(t *testing.T) {
	sys := systems.NewSummit()
	cfg := Config{Seed: 99, JobScale: 0.0001, FileScale: 0.02}
	g1, _ := NewGenerator(Summit(), sys, cfg)
	g2, _ := NewGenerator(Summit(), systems.NewSummit(), cfg)
	for i := 0; i < min(g1.Jobs(), 5); i++ {
		a := g1.GenerateJob(i)
		b := g2.GenerateJob(i)
		if len(a) != len(b) {
			t.Fatalf("job %d: log counts %d vs %d", i, len(a), len(b))
		}
		for li := range a {
			if len(a[li].Records) != len(b[li].Records) {
				t.Fatalf("job %d log %d: record counts differ", i, li)
			}
			for ri := range a[li].Records {
				ra, rb := a[li].Records[ri], b[li].Records[ri]
				if ra.Record != rb.Record || ra.Rank != rb.Rank {
					t.Fatalf("job %d log %d record %d: identity differs", i, li, ri)
				}
				for ci := range ra.Counters {
					if ra.Counters[ci] != rb.Counters[ci] {
						t.Fatalf("job %d log %d record %d counter %d: %d vs %d",
							i, li, ri, ci, ra.Counters[ci], rb.Counters[ci])
					}
				}
			}
		}
	}
}

func TestGenerateJobIndexBounds(t *testing.T) {
	g, _ := NewGenerator(Summit(), systems.NewSummit(), DefaultConfig())
	for _, i := range []int{-1, g.Jobs()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("index %d: expected panic", i)
				}
			}()
			g.GenerateJob(i)
		}()
	}
}

// campaignStats aggregates a small campaign for the calibration-band tests.
type campaignStats struct {
	files       map[iosim.LayerKind]int
	readBytes   map[iosim.LayerKind]float64
	writeBytes  map[iosim.LayerKind]float64
	sub1GReads  map[iosim.LayerKind][2]int // [sub-1G, total]
	sub1GWrites map[iosim.LayerKind][2]int
	iface       map[iosim.LayerKind]map[darshan.ModuleID]int
	jobClasses  map[string]int
	logs        int
	lustreRecs  int
	sharedRecs  int
	badPaths    int
}

// collectCampaign pools the campaigns of every provided seed into one
// statistics bundle: the heavy-tailed per-layer volumes converge too slowly
// for single-seed bands at test scale.
func collectCampaign(t *testing.T, name string, cfg Config, seeds ...uint64) (*campaignStats, *iosim.System) {
	t.Helper()
	if len(seeds) == 0 {
		seeds = []uint64{cfg.Seed}
	}
	sys := systems.ByName(name)
	st := &campaignStats{
		files:       map[iosim.LayerKind]int{},
		readBytes:   map[iosim.LayerKind]float64{},
		writeBytes:  map[iosim.LayerKind]float64{},
		sub1GReads:  map[iosim.LayerKind][2]int{},
		sub1GWrites: map[iosim.LayerKind][2]int{},
		iface: map[iosim.LayerKind]map[darshan.ModuleID]int{
			iosim.ParallelFS: {}, iosim.InSystem: {},
		},
		jobClasses: map[string]int{},
	}
	for _, seed := range seeds {
		cfg.Seed = seed
		g, err := NewGenerator(Profiles()[name], sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.addCampaign(t, sys, g)
	}
	return st, sys
}

func (st *campaignStats) addCampaign(t *testing.T, sys *iosim.System, g *Generator) {
	t.Helper()
	for i := 0; i < g.Jobs(); i++ {
		used := map[iosim.LayerKind]bool{}
		for _, log := range g.GenerateJob(i) {
			st.logs++
			for _, rec := range log.Records {
				path := log.PathOf(rec.Record)
				if path == "" {
					st.badPaths++
					continue
				}
				if rec.Module == darshan.ModuleLustre {
					st.lustreRecs++
					continue
				}
				layer := sys.LayerFor(path).Kind()
				used[layer] = true
				st.iface[layer][rec.Module]++
				if rec.Rank == darshan.SharedRank {
					st.sharedRecs++
				}
				var rb, wb int64
				switch rec.Module {
				case darshan.ModulePOSIX:
					rb = rec.Counters[darshan.PosixBytesRead]
					wb = rec.Counters[darshan.PosixBytesWritten]
				case darshan.ModuleSTDIO:
					rb = rec.Counters[darshan.StdioBytesRead]
					wb = rec.Counters[darshan.StdioBytesWritten]
				default:
					continue // MPI-IO volume already counted at POSIX level
				}
				st.files[layer]++
				// Volume-ratio bands are asserted over the sub-1TB body:
				// a single >1TB tail draw can flip a small campaign's
				// layer ratio, which is sampling lumpiness, not a
				// calibration error (EXPERIMENTS.md reports full-volume
				// ratios at larger scale).
				if rb <= int64(units.TiB) {
					st.readBytes[layer] += float64(rb)
				}
				if wb <= int64(units.TiB) {
					st.writeBytes[layer] += float64(wb)
				}
				if rb > 0 {
					c := st.sub1GReads[layer]
					c[1]++
					if rb <= int64(units.GiB) {
						c[0]++
					}
					st.sub1GReads[layer] = c
				}
				if wb > 0 {
					c := st.sub1GWrites[layer]
					c[1]++
					if wb <= int64(units.GiB) {
						c[0]++
					}
					st.sub1GWrites[layer] = c
				}
			}
		}
		switch {
		case used[iosim.ParallelFS] && used[iosim.InSystem]:
			st.jobClasses["both"]++
		case used[iosim.ParallelFS]:
			st.jobClasses["pfs"]++
		case used[iosim.InSystem]:
			st.jobClasses["insys"]++
		default:
			st.jobClasses["none"]++
		}
	}
}

var calibConfig = Config{Seed: 7, JobScale: 0.001, FileScale: 0.05}
var calibSeeds = []uint64{1, 2, 3}

// Summit calibration bands (paper values in comments; bands widened for the
// sampling noise of a 0.1% campaign).
func TestSummitCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	st, _ := collectCampaign(t, "Summit", calibConfig, calibSeeds...)

	if st.badPaths > 0 {
		t.Errorf("%d records with unresolvable paths", st.badPaths)
	}

	// Table 3: PFS holds several times the in-system file count (3.63×).
	ratio := float64(st.files[iosim.ParallelFS]) / float64(max(st.files[iosim.InSystem], 1))
	if ratio < 1.3 || ratio > 9 {
		t.Errorf("PFS/SCNL file ratio %.2f outside [1.3,9] (paper 3.63)", ratio)
	}

	// Table 3: PFS write-dominated (42×), SCNL read-dominated (1.65×).
	pfsWR := st.writeBytes[iosim.ParallelFS] / st.readBytes[iosim.ParallelFS]
	if pfsWR < 3 {
		t.Errorf("Summit PFS write/read volume %.2f, want ≥3 (paper 42)", pfsWR)
	}
	scnlRW := st.readBytes[iosim.InSystem] / st.writeBytes[iosim.InSystem]
	if scnlRW < 1.1 || scnlRW > 4 {
		t.Errorf("Summit SCNL read/write volume %.2f outside [1.1,4] (paper 1.65)", scnlRW)
	}

	// Figure 3: ≥95% of per-file transfers below 1 GB on both layers.
	for _, layer := range []iosim.LayerKind{iosim.ParallelFS, iosim.InSystem} {
		for dir, c := range map[string][2]int{"read": st.sub1GReads[layer], "write": st.sub1GWrites[layer]} {
			if c[1] == 0 {
				continue
			}
			frac := float64(c[0]) / float64(c[1])
			if frac < 0.93 {
				t.Errorf("%v %s: only %.3f of transfers ≤1GB (paper ≥0.97)", layer, dir, frac)
			}
		}
	}

	// Table 6: STDIO dominates SCNL (4.37× POSIX); MPI-IO nearly absent there.
	scnl := st.iface[iosim.InSystem]
	if scnl[darshan.ModuleSTDIO] < 2*scnl[darshan.ModulePOSIX] {
		t.Errorf("SCNL STDIO files %d not ≫ POSIX %d (paper 4.37×)",
			scnl[darshan.ModuleSTDIO], scnl[darshan.ModulePOSIX])
	}
	if scnl[darshan.ModuleMPIIO] > scnl[darshan.ModulePOSIX]/10 {
		t.Errorf("SCNL MPI-IO files %d should be negligible", scnl[darshan.ModuleMPIIO])
	}

	// Table 5: essentially no SCNL-exclusive jobs.
	if frac := float64(st.jobClasses["insys"]) / float64(max(st.jobClasses["pfs"], 1)); frac > 0.05 {
		t.Errorf("SCNL-exclusive job fraction %.3f, want ≈0", frac)
	}

	// Shared (rank −1) records exist for the performance analysis.
	if st.sharedRecs == 0 {
		t.Error("no shared-file records generated")
	}
	// Summit has no Lustre mount: no Lustre records.
	if st.lustreRecs != 0 {
		t.Errorf("Summit campaign has %d Lustre records", st.lustreRecs)
	}
}

func TestCoriCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	st, _ := collectCampaign(t, "Cori", calibConfig, calibSeeds...)

	// Table 3: PFS/CBB file ratio 28.87×.
	ratio := float64(st.files[iosim.ParallelFS]) / float64(max(st.files[iosim.InSystem], 1))
	if ratio < 12 || ratio > 70 {
		t.Errorf("PFS/CBB file ratio %.2f outside [12,70] (paper 28.87)", ratio)
	}

	// Table 3: both layers read-dominated (PFS 6.58×, CBB 3.16×).
	pfsRW := st.readBytes[iosim.ParallelFS] / st.writeBytes[iosim.ParallelFS]
	if pfsRW < 2 || pfsRW > 25 {
		t.Errorf("Cori PFS read/write %.2f outside [2,25] (paper 6.58)", pfsRW)
	}
	cbbRW := st.readBytes[iosim.InSystem] / st.writeBytes[iosim.InSystem]
	if cbbRW < 1.3 || cbbRW > 15 {
		t.Errorf("Cori CBB read/write %.2f outside [1.3,15] (paper 3.16)", cbbRW)
	}

	// Table 5: a substantial CBB-exclusive job population (14.38%).
	insysFrac := float64(st.jobClasses["insys"]) /
		float64(max(st.jobClasses["pfs"]+st.jobClasses["insys"]+st.jobClasses["both"], 1))
	if insysFrac < 0.05 || insysFrac > 0.30 {
		t.Errorf("CBB-exclusive job fraction %.3f outside [0.05,0.30] (paper 0.1438)", insysFrac)
	}

	// Table 6: STDIO is rare on CBB, noticeable on the PFS.
	cbb, pfs := st.iface[iosim.InSystem], st.iface[iosim.ParallelFS]
	if cbb[darshan.ModuleSTDIO] > cbb[darshan.ModulePOSIX]/5 {
		t.Errorf("CBB STDIO files %d not ≪ POSIX %d", cbb[darshan.ModuleSTDIO], cbb[darshan.ModulePOSIX])
	}
	if pfs[darshan.ModuleSTDIO] == 0 {
		t.Error("no STDIO files on Cori PFS")
	}

	// Lustre striping records accompany Cori PFS files.
	if st.lustreRecs == 0 {
		t.Error("no Lustre module records in a Cori campaign")
	}
}

func TestDomainMetadataCoverage(t *testing.T) {
	g, _ := NewGenerator(Cori(), systems.NewCori(), Config{Seed: 3, JobScale: 0.0005, FileScale: 0.02})
	covered, total := 0, 0
	for i := 0; i < g.Jobs(); i++ {
		logs := g.GenerateJob(i)
		if len(logs) == 0 {
			continue
		}
		total++
		if _, ok := logs[0].Job.Metadata["domain"]; ok {
			covered++
		}
	}
	frac := float64(covered) / float64(total)
	// Cori's NEWT join covered 90.02% of jobs.
	if frac < 0.82 || frac > 0.97 {
		t.Errorf("domain coverage %.3f outside [0.82,0.97] (paper 0.9002)", frac)
	}
}

func TestInSystemDomainClassOverrides(t *testing.T) {
	// Summit §3.2.2: biology/materials use SCNL read-only, chemistry
	// write-only. Verify via a profile forced onto the in-system layer.
	p := Summit()
	p.JobClassMix = stats.NewCategorical(
		stats.Weighted[JobLayerClass]{Value: BothLayers, Weight: 1},
	)
	p.Domains = stats.NewCategorical(
		stats.Weighted[string]{Value: "Biology", Weight: 1},
	)
	sys := systems.NewSummit()
	g, err := NewGenerator(p, sys, Config{Seed: 5, JobScale: 0.0002, FileScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < min(g.Jobs(), 20); i++ {
		for _, log := range g.GenerateJob(i) {
			for _, rec := range log.Records {
				path := log.PathOf(rec.Record)
				if !strings.HasPrefix(path, sys.InSystem.Mount()) {
					continue
				}
				var wb int64
				switch rec.Module {
				case darshan.ModulePOSIX:
					wb = rec.Counters[darshan.PosixBytesWritten]
				case darshan.ModuleSTDIO:
					wb = rec.Counters[darshan.StdioBytesWritten]
				}
				if wb > 0 {
					t.Fatalf("biology in-system file %q has %d written bytes; domain is read-only there", path, wb)
				}
			}
		}
	}
}

func TestFilePathsRouteToLayers(t *testing.T) {
	for _, name := range []string{"Summit", "Cori"} {
		sys := systems.ByName(name)
		g, _ := NewGenerator(Profiles()[name], sys, Config{Seed: 11, JobScale: 0.0002, FileScale: 0.02})
		for i := 0; i < min(g.Jobs(), 30); i++ {
			for _, log := range g.GenerateJob(i) {
				for _, rec := range log.Records {
					// Panics inside LayerFor would fail the test; also
					// check both layers appear plausible.
					sys.LayerFor(log.PathOf(rec.Record))
				}
			}
		}
	}
}

func TestVolumeCountersConsistent(t *testing.T) {
	// Bytes must equal request-count × request-size per histogram bin for
	// POSIX records (internal consistency of ObserveN batching).
	g, _ := NewGenerator(Summit(), systems.NewSummit(), Config{Seed: 13, JobScale: 0.0002, FileScale: 0.02})
	checked := 0
	for i := 0; i < min(g.Jobs(), 30); i++ {
		for _, log := range g.GenerateJob(i) {
			for _, rec := range log.RecordsFor(darshan.ModulePOSIX) {
				reads := rec.Counters[darshan.PosixReads]
				var histReads int64
				for b := 0; b < units.NumRequestBins; b++ {
					histReads += rec.Counters[darshan.PosixSizeRead0To100+b]
				}
				if reads != histReads {
					t.Fatalf("record %x: POSIX_READS %d != histogram total %d",
						rec.Record, reads, histReads)
				}
				if reads > 0 && rec.Counters[darshan.PosixBytesRead] <= 0 {
					t.Fatalf("record %x: reads with no bytes", rec.Record)
				}
				if rec.FCounters[darshan.PosixFReadTime] < 0 {
					t.Fatalf("record %x: negative read time", rec.Record)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no POSIX records checked")
	}
}

func TestProfilesComplete(t *testing.T) {
	for name, p := range Profiles() {
		if p.SystemName != name {
			t.Errorf("profile %q has SystemName %q", name, p.SystemName)
		}
		for _, lp := range []LayerProfile{p.PFS, p.InSystem} {
			for _, m := range darshan.InterfaceModules() {
				if _, ok := lp.Interfaces[m]; !ok {
					t.Errorf("%s: layer profile missing interface %v", name, m)
				}
			}
		}
		if p.Jobs <= 0 || p.Users <= 0 || p.LargeJobProcs <= 0 {
			t.Errorf("%s: bad scalar fields", name)
		}
	}
}

// The Recommendation 2 counterfactual must shift the request mixture to
// large well-formed transfers and reduce aggregate I/O time.
func TestWhatIfAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	run := func(whatIf bool) (timePerByte float64, largeShare float64) {
		sys := systems.NewSummit()
		g, err := NewGenerator(Summit(), sys, Config{
			Seed: 42, JobScale: 0.0005, FileScale: 0.03, WhatIfAggregation: whatIf,
		})
		if err != nil {
			t.Fatal(err)
		}
		var hist [units.NumRequestBins]int64
		var ioTime, bytes float64
		for i := 0; i < g.Jobs(); i++ {
			for _, log := range g.GenerateJob(i) {
				for _, rec := range log.RecordsFor(darshan.ModulePOSIX) {
					ioTime += rec.FCounters[darshan.PosixFReadTime] +
						rec.FCounters[darshan.PosixFWriteTime]
					bytes += float64(rec.Counters[darshan.PosixBytesRead] +
						rec.Counters[darshan.PosixBytesWritten])
					for b := 0; b < units.NumRequestBins; b++ {
						hist[b] += rec.Counters[darshan.PosixSizeRead0To100+b] +
							rec.Counters[darshan.PosixSizeWrite0To100+b]
					}
				}
			}
		}
		var total, large int64
		for b, c := range hist {
			total += c
			if b >= int(units.Bin1MTo4M) {
				large += c
			}
		}
		if total > 0 {
			largeShare = float64(large) / float64(total)
		}
		return ioTime / bytes, largeShare
	}
	baseTPB, baseLarge := run(false)
	aggTPB, aggLarge := run(true)
	// The counterfactual's two runs see different volume draws (different
	// RNG consumption), so the robust comparison is time per byte moved.
	if aggTPB >= baseTPB {
		t.Errorf("aggregated time/byte %.3g not below baseline %.3g", aggTPB, baseTPB)
	}
	if baseLarge > 0.2 {
		t.Errorf("baseline large-request share %.3f implausibly high", baseLarge)
	}
	if aggLarge < 0.95 {
		t.Errorf("what-if large-request share %.3f, want ≈1 (all aggregated)", aggLarge)
	}
}
