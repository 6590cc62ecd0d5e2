package analysis

import (
	"math/rand/v2"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
	"iolayers/internal/workload"
)

// buildLog constructs a small hand-made log on the given system.
func buildLog(t testing.TB, sys *iosim.System, jobID uint64, nprocs int, domain string,
	build func(c *iosim.Client)) *darshan.Log {
	t.Helper()
	meta := map[string]string{}
	if domain != "" {
		meta["domain"] = domain
	}
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID: jobID, UserID: 1, NProcs: nprocs,
		StartTime: 1000, EndTime: 4600, Metadata: meta,
	})
	c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(jobID, 1)))
	build(c)
	return rt.Finalize()
}

func TestSummaryCounts(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	// Two logs from the same job, one from another.
	for i, jid := range []uint64{10, 10, 11} {
		log := buildLog(t, sys, jid, 4, "Physics", func(c *iosim.Client) {
			c.Write(darshan.ModulePOSIX, "/gpfs/alpine/p/f"+string(rune('a'+i)), 0, units.MiB, 0)
		})
		a.AddLog(log)
	}
	r := a.Report()
	if r.Summary.Logs != 3 || r.Summary.Jobs != 2 || r.Summary.Files != 3 {
		t.Errorf("summary = %+v", r.Summary)
	}
	if r.Summary.NodeHours <= 0 {
		t.Error("node hours not accumulated")
	}
	if r.Summary.System != "Summit" {
		t.Errorf("system = %q", r.Summary.System)
	}
}

func TestLayerRoutingAndVolumes(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	log := buildLog(t, sys, 20, 2, "", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/p/pfs.dat", 0, 3*units.MiB, 0)
		c.Read(darshan.ModuleSTDIO, "/mnt/bb/u/local.log", 0, units.MiB, 0)
	})
	a.AddLog(log)
	r := a.Report()
	pfs, insys := r.Layers[0].Stats, r.Layers[1].Stats
	if pfs.Files != 1 || insys.Files != 1 {
		t.Fatalf("file counts: pfs=%d insys=%d", pfs.Files, insys.Files)
	}
	if pfs.Bytes[Write] != float64(3*units.MiB) || pfs.Bytes[Read] != 0 {
		t.Errorf("pfs bytes: %v", pfs.Bytes)
	}
	if insys.Bytes[Read] != float64(units.MiB) {
		t.Errorf("insys bytes: %v", insys.Bytes)
	}
}

func TestPosixPreferredAccounting(t *testing.T) {
	// An MPI-IO file must be accounted once, at the POSIX level, and
	// attributed to MPI-IO in the interface table.
	sys := systems.NewCori()
	a := NewAggregator(sys)
	log := buildLog(t, sys, 30, 4, "", func(c *iosim.Client) {
		c.Write(darshan.ModuleMPIIO, "/global/cscratch1/u/sim.nc", 0, 8*units.MiB, 0)
	})
	a.AddLog(log)
	r := a.Report()
	pfs := r.Layers[0].Stats
	if pfs.Files != 1 {
		t.Fatalf("files = %d, want 1 (MPI-IO + POSIX records are one file)", pfs.Files)
	}
	if pfs.Bytes[Write] != float64(8*units.MiB) {
		t.Errorf("bytes = %v, want one accounting of 8MiB", pfs.Bytes[Write])
	}
	if pfs.InterfaceFiles[darshan.ModuleMPIIO] != 1 || pfs.InterfaceFiles[darshan.ModulePOSIX] != 0 {
		t.Errorf("interface attribution: %v", pfs.InterfaceFiles)
	}
}

func TestClassification(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	log := buildLog(t, sys, 40, 2, "", func(c *iosim.Client) {
		c.Read(darshan.ModulePOSIX, "/gpfs/alpine/ro.dat", 0, units.KiB, 0)
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/wo.dat", 0, units.KiB, 0)
		c.Read(darshan.ModulePOSIX, "/gpfs/alpine/rw.dat", 0, units.KiB, 0)
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/rw.dat", 0, units.KiB, 0)
		c.Write(darshan.ModuleSTDIO, "/gpfs/alpine/so.log", 0, 100, 0)
	})
	a.AddLog(log)
	ls := a.Report().Layers[0].Stats
	if ls.ClassFiles[ReadOnly] != 1 || ls.ClassFiles[WriteOnly] != 2 || ls.ClassFiles[ReadWrite] != 1 {
		t.Errorf("classes: %v", ls.ClassFiles)
	}
	// STDIO-only classification sees just the .log file.
	if ls.StdioClassFiles[WriteOnly] != 1 || ls.StdioClassFiles[ReadOnly] != 0 {
		t.Errorf("stdio classes: %v", ls.StdioClassFiles)
	}
}

func TestHugeFileTails(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 50, NProcs: 1, StartTime: 0, EndTime: 10})
	rt.ObserveN(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/huge.bin",
		Rank: 0, Kind: darshan.OpRead, Size: 2 * units.GiB, Offset: 0, Start: 0, End: 5}, 600) // 1.17 TiB
	rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/small.bin",
		Rank: 0, Kind: darshan.OpWrite, Size: units.MiB, Offset: 0, Start: 6, End: 7})
	a.AddLog(rt.Finalize())
	ls := a.Report().Layers[0].Stats
	if ls.HugeFiles[Read] != 1 || ls.HugeFiles[Write] != 0 {
		t.Errorf("huge files: %v", ls.HugeFiles)
	}
	if got := ls.TransferHist[Read].Counts[units.TransferOver1T]; got != 1 {
		t.Errorf("1TB+ transfer bin count = %d", got)
	}
}

func TestExclusivity(t *testing.T) {
	sys := systems.NewCori()
	a := NewAggregator(sys)
	add := func(jid uint64, paths ...string) {
		log := buildLog(t, sys, jid, 2, "", func(c *iosim.Client) {
			for _, p := range paths {
				c.Write(darshan.ModulePOSIX, p, 0, units.KiB, 0)
			}
		})
		a.AddLog(log)
	}
	add(1, "/global/cscratch1/a")
	add(2, "/var/opt/cray/dws/b")
	add(3, "/global/cscratch1/c", "/var/opt/cray/dws/d")
	add(4) // empty job
	r := a.Report()
	e := r.Exclusivity
	if e.PFSOnly != 1 || e.InSystemOnly != 1 || e.Both != 1 || e.Untracked != 1 {
		t.Errorf("exclusivity: %+v", e)
	}
}

func TestRequestHistograms(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 60, NProcs: 2048, StartTime: 0, EndTime: 100})
	rt.ObserveN(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/f",
		Rank: 0, Kind: darshan.OpRead, Size: 50, Offset: 0, Start: 0, End: 1}, 10)
	rt.ObserveN(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/f",
		Rank: 0, Kind: darshan.OpRead, Size: 5 * units.KiB, Offset: 0, Start: 1, End: 2}, 30)
	a.AddLog(rt.Finalize())
	r := a.Report()
	h := r.Layers[0].Stats.RequestHist[Read]
	if h.Counts[units.Bin0To100] != 10 || h.Counts[units.Bin1KTo10K] != 30 {
		t.Errorf("request hist: %v", h.Counts)
	}
	// This was a >1024-proc job, so the large-job histogram matches.
	lh := r.Layers[0].Stats.LargeJobRequestHist[Read]
	if lh.Counts[units.Bin0To100] != 10 {
		t.Errorf("large-job hist missing: %v", lh.Counts)
	}
	cdf := r.RequestCDF(iosim.ParallelFS, Read, false)
	if cdf[units.Bin0To100] != 0.25 || cdf[units.Bin1GPlus] != 1.0 {
		t.Errorf("request CDF: %v", cdf)
	}
}

func TestSmallJobExcludedFromLargeHist(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 61, NProcs: 8, StartTime: 0, EndTime: 100})
	rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/f",
		Rank: 0, Kind: darshan.OpWrite, Size: 50, Offset: 0, Start: 0, End: 1})
	a.AddLog(rt.Finalize())
	lh := a.Report().Layers[0].Stats.LargeJobRequestHist[Write]
	if lh.Total() != 0 {
		t.Errorf("8-proc job leaked into large-job histogram: %v", lh.Counts)
	}
}

func TestSharedFilePerf(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	log := buildLog(t, sys, 70, 64, "", func(c *iosim.Client) {
		c.SharedTransfer(darshan.ModulePOSIX, "/gpfs/alpine/shared.h5", iosim.Read, 200*units.MiB, false)
		c.SharedTransfer(darshan.ModuleSTDIO, "/gpfs/alpine/shared.log", iosim.Read, 200*units.MiB, false)
		// Non-shared file must not contribute to perf.
		c.Read(darshan.ModulePOSIX, "/gpfs/alpine/private.dat", 3, 200*units.MiB, 0)
	})
	a.AddLog(log)
	r := a.Report()
	sums := r.PerfSummaries()
	var posixMedian, stdioMedian float64
	for _, s := range sums {
		if s.Layer != "Alpine" || s.Direction != Read || s.Bin != units.TransferTo1G {
			continue
		}
		switch s.Interface {
		case darshan.ModulePOSIX:
			posixMedian = s.Box.Median
		case darshan.ModuleSTDIO:
			stdioMedian = s.Box.Median
		}
	}
	if posixMedian == 0 || stdioMedian == 0 {
		t.Fatalf("missing perf cells: %+v", sums)
	}
	if posixMedian <= stdioMedian {
		t.Errorf("POSIX %v MB/s not above STDIO %v MB/s", posixMedian, stdioMedian)
	}
	// Exactly one sample per cell: the private file was excluded.
	total := 0
	for _, s := range sums {
		total += s.Box.N
	}
	if total != 2 {
		t.Errorf("perf samples = %d, want 2 (shared files only)", total)
	}
}

func TestDomainAttribution(t *testing.T) {
	sys := systems.NewCori()
	a := NewAggregator(sys)
	log := buildLog(t, sys, 80, 2, "Physics", func(c *iosim.Client) {
		c.Read(darshan.ModulePOSIX, "/var/opt/cray/dws/j/in.dat", 0, 10*units.MiB, 0)
		c.Write(darshan.ModuleSTDIO, "/global/cscratch1/u/out.log", 0, units.MiB, 0)
	})
	a.AddLog(log)
	// A second, uncovered job.
	a.AddLog(buildLog(t, sys, 81, 2, "", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/global/cscratch1/u/x", 0, units.KiB, 0)
	}))
	r := a.Report()
	if len(r.Domains) != 1 || r.Domains[0].Domain != "Physics" {
		t.Fatalf("domains: %+v", r.Domains)
	}
	d := r.Domains[0]
	if d.Jobs != 1 {
		t.Errorf("physics jobs = %d", d.Jobs)
	}
	if d.InSystemBytes[0] != float64(10*units.MiB) || d.InSystemBytes[1] != 0 {
		t.Errorf("in-system bytes: %v", d.InSystemBytes)
	}
	if d.StdioBytes[1] != float64(units.MiB) {
		t.Errorf("stdio bytes: %v", d.StdioBytes)
	}
	if r.DomainCoverage != 0.5 {
		t.Errorf("coverage = %v, want 0.5", r.DomainCoverage)
	}
}

func TestStdioJobFraction(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	a.AddLog(buildLog(t, sys, 90, 1, "", func(c *iosim.Client) {
		c.Write(darshan.ModuleSTDIO, "/gpfs/alpine/a.log", 0, 100, 0)
	}))
	a.AddLog(buildLog(t, sys, 91, 1, "", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/b.dat", 0, 100, 0)
	}))
	if got := a.Report().StdioJobFraction; got != 0.5 {
		t.Errorf("stdio job fraction = %v, want 0.5", got)
	}
}

func TestMergeEquivalentToSequential(t *testing.T) {
	sys := systems.NewSummit()
	gen, err := workload.NewGenerator(workload.Summit(), sys,
		workload.Config{Seed: 21, JobScale: 0.0002, FileScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	seq := NewAggregator(sys)
	a1 := NewAggregator(sys)
	a2 := NewAggregator(sys)
	n := min(gen.Jobs(), 40)
	for i := 0; i < n; i++ {
		for _, log := range gen.GenerateJob(i) {
			seq.AddLog(log)
			if i%2 == 0 {
				a1.AddLog(log)
			} else {
				a2.AddLog(log)
			}
		}
	}
	a1.Merge(a2)
	rs, rm := seq.Report(), a1.Report()
	// Node-hours are summed as whole node-seconds, so they match exactly
	// across merge topologies, like everything else.
	if rs.Summary != rm.Summary {
		t.Errorf("summaries differ:\nseq %+v\nmrg %+v", rs.Summary, rm.Summary)
	}
	if rs.Exclusivity != rm.Exclusivity {
		t.Errorf("exclusivity differs: %+v vs %+v", rs.Exclusivity, rm.Exclusivity)
	}
	for li := 0; li < 2; li++ {
		s, m := rs.Layers[li].Stats, rm.Layers[li].Stats
		if s.Files != m.Files || s.Bytes != m.Bytes || s.HugeFiles != m.HugeFiles ||
			s.ClassFiles != m.ClassFiles || s.StdioClassFiles != m.StdioClassFiles {
			t.Errorf("layer %d stats differ", li)
		}
		for d := 0; d < 2; d++ {
			for b, c := range s.TransferHist[d].Counts {
				if m.TransferHist[d].Counts[b] != c {
					t.Errorf("layer %d transfer hist differs at %d/%d", li, d, b)
				}
			}
			for b, c := range s.RequestHist[d].Counts {
				if m.RequestHist[d].Counts[b] != c {
					t.Errorf("layer %d request hist differs at %d/%d", li, d, b)
				}
			}
		}
		for mod, n := range s.InterfaceFiles {
			if m.InterfaceFiles[mod] != n {
				t.Errorf("layer %d interface %v differs: %d vs %d", li, mod, n, m.InterfaceFiles[mod])
			}
		}
	}
}

func TestMergeDifferentSystemsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAggregator(systems.NewSummit()).Merge(NewAggregator(systems.NewCori()))
}

func TestAddLogPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAggregator(systems.NewSummit()).AddLog(nil)
}

func TestTransferCDFMonotone(t *testing.T) {
	sys := systems.NewCori()
	gen, _ := workload.NewGenerator(workload.Cori(), sys,
		workload.Config{Seed: 23, JobScale: 0.0002, FileScale: 0.05})
	a := NewAggregator(sys)
	for i := 0; i < min(gen.Jobs(), 60); i++ {
		for _, log := range gen.GenerateJob(i) {
			a.AddLog(log)
		}
	}
	r := a.Report()
	for _, kind := range []iosim.LayerKind{iosim.ParallelFS, iosim.InSystem} {
		for _, d := range []Direction{Read, Write} {
			cdf := r.TransferCDF(kind, d)
			prev := 0.0
			for i, v := range cdf {
				if v < prev {
					t.Errorf("%v/%v CDF not monotone at %d: %v", kind, d, i, cdf)
				}
				prev = v
			}
		}
	}
}

func TestDirectionAndClassStrings(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("direction strings")
	}
	if ReadOnly.String() != "read-only" || ReadWrite.String() != "read-write" ||
		WriteOnly.String() != "write-only" {
		t.Error("class strings")
	}
}
