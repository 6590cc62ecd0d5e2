package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math"
	"sync/atomic"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

var testCfg = workload.Config{Seed: 3, JobScale: 0.0002, FileScale: 0.02}

func TestNewCampaignUnknownSystem(t *testing.T) {
	if _, err := NewCampaign("Frontier", testCfg); err == nil {
		t.Error("expected error for unknown system")
	}
}

func TestNewCampaignCaseInsensitive(t *testing.T) {
	for _, name := range []string{"summit", "Summit", "cori", "Cori"} {
		if _, err := NewCampaign(name, testCfg); err != nil {
			t.Errorf("NewCampaign(%q): %v", name, err)
		}
	}
}

func TestRunProducesReport(t *testing.T) {
	c, err := NewCampaign("Summit", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.System != "Summit" {
		t.Errorf("system = %q", rep.Summary.System)
	}
	if rep.Summary.Jobs == 0 || rep.Summary.Logs == 0 || rep.Summary.Files == 0 {
		t.Errorf("empty summary: %+v", rep.Summary)
	}
}

// The defining property of the engine: the report is identical for any
// worker count (per-job RNG streams + mergeable aggregators).
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var base *struct {
		jobs, logs, files int64
		pfsFiles          int64
	}
	for _, workers := range []int{1, 4, 13} {
		c, err := NewCampaign("Cori", testCfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Workers = workers
		rep, err := c.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := &struct {
			jobs, logs, files int64
			pfsFiles          int64
		}{rep.Summary.Jobs, rep.Summary.Logs, rep.Summary.Files, rep.Layers[0].Stats.Files}
		if base == nil {
			base = cur
			continue
		}
		if *cur != *base {
			t.Errorf("workers=%d: results differ: %+v vs %+v", workers, cur, base)
		}
	}
}

func TestRunInvokesSinkForEveryLog(t *testing.T) {
	c, err := NewCampaign("Summit", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	rep, err := c.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		if log == nil {
			t.Error("nil log in sink")
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != rep.Summary.Logs {
		t.Errorf("sink saw %d logs, report says %d", count.Load(), rep.Summary.Logs)
	}
}

func TestRunSinkErrorAborts(t *testing.T) {
	c, err := NewCampaign("Summit", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	_, err = c.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped sink error", err)
	}
}

func TestRunStudyBothSystems(t *testing.T) {
	reports, err := RunStudy(workload.Config{Seed: 5, JobScale: 0.0001, FileScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, name := range []string{"Summit", "Cori"} {
		rep, ok := reports[name]
		if !ok {
			t.Fatalf("missing %s report", name)
		}
		if rep.Summary.System != name {
			t.Errorf("report %s labeled %s", name, rep.Summary.System)
		}
		if math.IsNaN(rep.Summary.NodeHours) || rep.Summary.NodeHours <= 0 {
			t.Errorf("%s node hours = %v", name, rep.Summary.NodeHours)
		}
	}
}

func TestBadConfigSurfacesError(t *testing.T) {
	c, err := NewCampaign("Summit", workload.Config{Seed: 1, JobScale: -1, FileScale: 0.1})
	if err != nil {
		t.Fatal(err) // NewCampaign doesn't validate the workload config
	}
	if _, err := c.Run(nil); err == nil {
		t.Error("expected error from invalid workload config")
	}
}

// TestCampaignPinned pins a campaign's output bytes, not just their
// agreement across worker counts: the sha256 of the full text report and
// of the stripped metrics snapshot, for a plain campaign, a fault-injected
// one and one whose generator fails some jobs, at one and at four workers.
func TestCampaignPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	// A PFS profile without MPI-IO: every job that draws an MPI-IO file
	// dies in generation and is reported as a failed job.
	noMPIIO := func(c *Campaign) {
		ifaces := maps.Clone(c.Profile.PFS.Interfaces)
		delete(ifaces, darshan.ModuleMPIIO)
		c.Profile.PFS.Interfaces = ifaces
	}
	for _, tc := range []struct {
		name                  string
		cfg                   workload.Config
		mutate                func(*Campaign)
		reportSHA, metricsSHA string
	}{
		{"resume", resumeCfg, nil,
			"da9a0440dfd15294b48aa03868ae05eea84b6f2dc701a159424b323a03db9451",
			"a4dedd36946639b6829cede248a5c19ba6c716b7e9dc5849b02da5bc14e6365e"},
		{"faulty", faultyCfg(), nil,
			"9435e8c0f0cf4bce8d9ff5f6b6ab5fe5a69f96ef8ec33f6209a22d63659056b3",
			"f0dc11f888bcb1d72d801e5a054b44e4f993998cb0e252c8a2dca25a30c5d302"},
		{"failing", resumeCfg, noMPIIO,
			"f0828bc50c94ad41ff656fd82e52281bc5a4b166bf6c527f0712ebf638504bd2",
			"f0469b4c7e6f22c5f61283d6cf6af482fb20f53b27e99f9b985027ffdfd50421"},
	} {
		for _, workers := range []int{1, 4} {
			c, err := NewCampaign("Summit", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(c)
			}
			c.Workers = workers
			m := obsv.New()
			rep, err := c.RunContext(context.Background(), RunOptions{Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			gotReport := fmt.Sprintf("%x", sha256.Sum256([]byte(report.Everything(rep))))
			gotMetrics := fmt.Sprintf("%x", sha256.Sum256([]byte(stripped(m))))
			if gotReport != tc.reportSHA || gotMetrics != tc.metricsSHA {
				t.Errorf("%s at %d workers: report sha256 %s, metrics sha256 %s; want %s, %s",
					tc.name, workers, gotReport, gotMetrics, tc.reportSHA, tc.metricsSHA)
			}
		}
	}
}
