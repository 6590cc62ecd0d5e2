package report

import (
	"math/rand/v2"
	"strings"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{2048, "2.05 KB"},
		{3.5e6, "3.50 MB"},
		{7.2e9, "7.20 GB"},
		{1.5e12, "1.50 TB"},
		{8.278e18, "8278.00 PB" /* Summit's famous write volume */},
	}
	for _, c := range cases {
		if got := HumanBytes(c.in); got != c.want {
			t.Errorf("HumanBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{7, "7"},
		{999, "999"},
		{2816, "2.8K"},
		{7740000, "7.74M"},
	}
	for _, c := range cases {
		if got := HumanCount(c.in); got != c.want {
			t.Errorf("HumanCount(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// smallReport builds a tiny real report for rendering tests.
func smallReport(t *testing.T) *analysis.Report {
	t.Helper()
	sys := systems.NewSummit()
	agg := analysis.NewAggregator(sys)
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID: 1, UserID: 1, NProcs: 8, StartTime: 0, EndTime: 3600,
		Metadata: map[string]string{"domain": "Physics"},
	})
	c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(1, 1)))
	c.Write(darshan.ModulePOSIX, "/gpfs/alpine/phys/a.h5", 0, 10*units.MiB, 0)
	c.Read(darshan.ModuleSTDIO, "/mnt/bb/phys/b.log", 0, units.MiB, 0)
	c.SharedTransfer(darshan.ModulePOSIX, "/gpfs/alpine/phys/c.chk", iosim.Write, 200*units.MiB, false)
	agg.AddLog(rt.Finalize())
	return agg.Report()
}

func TestTablesContainExpectedContent(t *testing.T) {
	r := smallReport(t)
	checks := map[string][]string{
		Table2(r):         {"Table 2", "Summit", "Node-hours"},
		Table3(r):         {"Table 3", "Alpine", "SCNL"},
		Table4(r):         {"Table 4", "Read files", "Write files"},
		Table5(r):         {"Table 5", "In-system only", "PFS only"},
		Table6(r):         {"Table 6", "POSIX", "MPI-IO", "STDIO"},
		Figure3(r):        {"Figure 3", "1TB+", "Alpine/read"},
		Figure4(r, false): {"Figure 4", "0_100", "1G_PLUS"},
		Figure4(r, true):  {"Figure 5", "0_100"},
		Figure6(r, false): {"Figure 6", "read-only", "write-only"},
		Figure6(r, true):  {"Figure 8", "read-only"},
		Figure7(r):        {"Figure 7", "Physics"},
		Figure9(r):        {"Figure 9", "POSIX"},
		Figure10(r):       {"Figure 10", "Physics", "coverage"},
		Figure11(r):       {"Figures 11/12", "Median"},
	}
	for out, wants := range checks {
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("output missing %q:\n%s", w, out)
			}
		}
	}
}

func TestEverythingIncludesAllSections(t *testing.T) {
	out := Everything(smallReport(t))
	for _, section := range []string{
		"Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figures 11/12",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("Everything missing %q", section)
		}
	}
}

func TestFigure11ShowsSharedFilePerf(t *testing.T) {
	out := Figure11(smallReport(t))
	if !strings.Contains(out, "Alpine") || !strings.Contains(out, "write") {
		t.Errorf("perf table missing the shared write:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	// Every rendered table's rows must be equal-or-shorter than the header
	// separator logic implies; simply check no row is empty and the
	// separator row exists.
	out := Table3(smallReport(t))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("table too short:\n%s", out)
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("missing separator row: %q", lines[2])
	}
}
