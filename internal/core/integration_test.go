package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// The persistence detour must be lossless: a campaign streamed into an
// archive, read back, and re-analyzed produces the same report as the
// campaign analyzed in memory — and it must not matter which detour was
// taken: the same campaign offered to Ingest as a directory, a .dgar, a
// .dgc or (for a one-log corpus) a single file renders byte-identical JSON
// at any worker count.
func TestArchiveDetourMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	cfg := workload.Config{Seed: 8, JobScale: 0.0002, FileScale: 0.02}

	campaign, err := NewCampaign("Summit", cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "campaign.dgar")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	direct, err := campaign.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		mu.Lock()
		defer mu.Unlock()
		if err := logfmt.WriteFile(filepath.Join(dir, fmt.Sprintf("job%05d_%05d.darshan", jobIdx, logIdx)), log); err != nil {
			return err
		}
		return aw.Append(log)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	logs, err := logfmt.ReadArchiveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	agg := analysis.NewAggregator(systems.NewSummit())
	for _, log := range logs {
		agg.AddLog(log)
	}
	detour := agg.Report()

	if direct.Summary.Logs != detour.Summary.Logs ||
		direct.Summary.Jobs != detour.Summary.Jobs ||
		direct.Summary.Files != detour.Summary.Files {
		t.Errorf("summaries differ:\ndirect %+v\ndetour %+v", direct.Summary, detour.Summary)
	}
	if direct.Exclusivity != detour.Exclusivity {
		t.Errorf("exclusivity differs: %+v vs %+v", direct.Exclusivity, detour.Exclusivity)
	}
	for li := 0; li < 2; li++ {
		d, g := direct.Layers[li].Stats, detour.Layers[li].Stats
		if d.Files != g.Files || d.Bytes != g.Bytes || d.ClassFiles != g.ClassFiles ||
			d.HugeFiles != g.HugeFiles {
			t.Errorf("layer %d stats differ after the archive detour", li)
		}
		for m, n := range d.InterfaceFiles {
			if g.InterfaceFiles[m] != n {
				t.Errorf("layer %d interface %v: %d vs %d", li, m, n, g.InterfaceFiles[m])
			}
		}
	}
	if direct.Tuning != detour.Tuning {
		t.Errorf("tuning differs: %+v vs %+v", direct.Tuning, detour.Tuning)
	}
	if direct.MonthlyLogs != detour.MonthlyLogs {
		t.Errorf("monthly series differ")
	}

	// Every kind of source, through the one entry point. The columnar image
	// is taken from the directory, so Convert walks a path list here and an
	// archive in the one-log corpus below.
	sys := systems.NewSummit()
	columnar := filepath.Join(t.TempDir(), "campaign.dgc")
	if _, err := Convert(context.Background(), dir, columnar, ConvertOptions{SegmentLogs: 8}); err != nil {
		t.Fatal(err)
	}
	oneDir := t.TempDir()
	oneLog := filepath.Join(oneDir, "only.darshan")
	if err := logfmt.WriteFile(oneLog, logs[0]); err != nil {
		t.Fatal(err)
	}
	oneArchive := filepath.Join(t.TempDir(), "one.dgar")
	if err := logfmt.WriteArchiveFile(oneArchive, logs[:1]); err != nil {
		t.Fatal(err)
	}
	oneColumnar := filepath.Join(t.TempDir(), "one.dgc")
	if _, err := Convert(context.Background(), oneArchive, oneColumnar, ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, corpus := range []struct {
		logs    int
		sources []string
	}{
		{len(logs), []string{dir, path, columnar}},
		{1, []string{oneLog, oneDir, oneArchive, oneColumnar}},
	} {
		want := ""
		for _, src := range corpus.sources {
			for _, workers := range []int{1, 4} {
				rep, res, err := Ingest(context.Background(), sys, src, IngestOptions{Workers: workers})
				if err != nil {
					t.Fatalf("Ingest(%s, workers=%d): %v", src, workers, err)
				}
				if res.Parsed != corpus.logs || res.Failed != 0 {
					t.Fatalf("Ingest(%s, workers=%d): parsed %d failed %d, want %d/0",
						src, workers, res.Parsed, res.Failed, corpus.logs)
				}
				got, err := report.RenderString(rep, report.Options{Format: report.FormatJSON})
				if err != nil {
					t.Fatal(err)
				}
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("Ingest(%s, workers=%d) renders different JSON than Ingest(%s, workers=1)",
						src, workers, corpus.sources[0])
				}
			}
		}
	}
}
