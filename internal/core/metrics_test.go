package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
)

// stripped renders the deterministic slice of a registry: the exact bytes
// the determinism contract pins across worker counts and kill/resume.
func stripped(r *obsv.Registry) string {
	return string(r.Snapshot().StripVolatile().JSON())
}

// TestCampaignMetricsDeterministicAcrossWorkers pins the metrics half of
// the §7 determinism contract: the stripped metrics snapshot — counters,
// deterministic histograms, span bytes/ops — is byte-identical for any
// worker count, alongside the report itself.
func TestCampaignMetricsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	var want string
	var wantReport string
	for _, workers := range []int{1, 4, 16} {
		c, err := NewCampaign("Summit", resumeCfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Workers = workers
		m := obsv.New()
		rep, err := c.RunContext(context.Background(), RunOptions{Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		got := stripped(m)
		if want == "" {
			want, wantReport = got, report.Everything(rep)
			continue
		}
		if got != want {
			t.Errorf("workers=%d: stripped metrics differ from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
		if r := report.Everything(rep); r != wantReport {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// TestCampaignMetricsContent checks the run.* counters and the generate
// span carry the campaign's actual event counts.
func TestCampaignMetricsContent(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	c, err := NewCampaign("Summit", resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 2
	m := obsv.New()
	var logs atomic.Int64
	rep, err := c.RunContext(context.Background(), RunOptions{
		Metrics: m,
		Sink:    func(_, _ int, _ *darshan.Log) error { logs.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Counter("run.logs_generated").Value(), logs.Load(); got != want {
		t.Errorf("run.logs_generated = %d, sink saw %d", got, want)
	}
	if got, want := m.Counter("run.jobs_done").Value(), rep.Summary.Jobs; got != want {
		t.Errorf("run.jobs_done = %d, report says %d jobs", got, want)
	}
	sp := m.Span("generate")
	if sp.Ops() != m.Counter("run.jobs_done").Value() {
		t.Errorf("generate span ops = %d, want %d", sp.Ops(), m.Counter("run.jobs_done").Value())
	}
	if sp.Bytes() <= 0 {
		t.Errorf("generate span bytes = %d, want > 0", sp.Bytes())
	}
	if sp.WallNanos() <= 0 {
		t.Errorf("generate span wall = %d, want > 0", sp.WallNanos())
	}
}

// TestCampaignMetricsKillAndResume extends the crash-safety property to
// metrics: a campaign cancelled at several points and resumed (with a
// different worker count) must end with a stripped metrics snapshot
// byte-identical to the uninterrupted run's.
func TestCampaignMetricsKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	base, err := NewCampaign("Summit", resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	var totalLogs atomic.Int64
	mBase := obsv.New()
	_, err = base.RunContext(context.Background(), RunOptions{
		Metrics: mBase,
		Sink:    func(_, _ int, _ *darshan.Log) error { totalLogs.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := stripped(mBase)
	n := totalLogs.Load()

	for _, tc := range []struct {
		name        string
		cancelAfter int64
		workers     int
		resumeWith  int
	}{
		{"early", 1, 1, 4},
		{"mid", n / 2, 4, 2},
		{"late", n - 2, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckPath := filepath.Join(t.TempDir(), "campaign.ckpt")
			c, err := NewCampaign("Summit", resumeCfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Workers = tc.workers
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m1 := obsv.New()
			var seen atomic.Int64
			_, err = c.RunContext(ctx, RunOptions{
				Metrics: m1,
				Sink: func(_, _ int, _ *darshan.Log) error {
					if seen.Add(1) == tc.cancelAfter {
						cancel()
					}
					return nil
				},
				CheckpointPath:  ckPath,
				CheckpointEvery: 2,
			})
			if err == nil {
				if got := stripped(m1); got != baseline {
					t.Error("completed-despite-cancel metrics differ from baseline")
				}
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: %v", err)
			}

			ck, err := LoadIngestCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Metrics == nil {
				t.Fatal("checkpoint carries no metrics state")
			}
			c2, err := NewCampaign(ck.System, ck.Config)
			if err != nil {
				t.Fatal(err)
			}
			c2.Workers = tc.resumeWith
			m2 := obsv.New() // fresh registry: resume restores from the checkpoint
			if _, err := c2.RunContext(context.Background(), RunOptions{
				Metrics:        m2,
				CheckpointPath: ckPath, CheckpointEvery: 2, Resume: ck,
			}); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := stripped(m2); got != baseline {
				t.Errorf("resumed metrics differ from uninterrupted baseline:\n%s\nvs\n%s", got, baseline)
			}
		})
	}
}

// TestIngestMetricsDeterministicAcrossWorkers pins ingestion metrics across
// worker counts, and checks the ingest.* counters match the pass result.
func TestIngestMetricsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	_, archive, count := buildCorpus(t)
	sys := systems.NewSummit()

	var want string
	for _, workers := range []int{1, 4, 16} {
		m := obsv.New()
		_, res, err := IngestArchive(context.Background(), sys, archive, IngestOptions{
			Workers: workers, Metrics: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parsed != count {
			t.Fatalf("workers=%d: parsed %d of %d", workers, res.Parsed, count)
		}
		if got := m.Counter("ingest.logs_parsed").Value(); got != int64(count) {
			t.Errorf("workers=%d: ingest.logs_parsed = %d, want %d", workers, got, count)
		}
		if got := m.Histogram("ingest.entry_bytes").Count(); got != int64(count) {
			t.Errorf("workers=%d: entry_bytes count = %d, want %d", workers, got, count)
		}
		if got := m.Span("ingest").Bytes(); got <= 0 {
			t.Errorf("workers=%d: ingest span bytes = %d", workers, got)
		}
		got := stripped(m)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: stripped metrics differ from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestIngestMetricsKillAndResume is the ingestion half: a cancelled pass
// resumed from its checkpoint (metrics restored from the checkpoint into a
// fresh registry) ends byte-identical to the uninterrupted pass.
func TestIngestMetricsKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, archive, count := buildCorpus(t)
	sys := systems.NewSummit()

	for _, mode := range []string{"dir", "archive"} {
		t.Run(mode, func(t *testing.T) {
			baseM := obsv.New()
			ingest := func(ctx context.Context, m *obsv.Registry, resume *IngestCheckpoint, ckPath string, workers int) error {
				opts := IngestOptions{Workers: workers, Metrics: m,
					CheckpointPath: ckPath, CheckpointEvery: 3, Resume: resume}
				var err error
				if mode == "dir" {
					_, _, err = Ingest(ctx, sys, dir, opts)
				} else {
					_, _, err = IngestArchive(ctx, sys, archive, opts)
				}
				return err
			}
			if err := ingest(context.Background(), baseM, nil, "", 2); err != nil {
				t.Fatal(err)
			}
			baseline := stripped(baseM)
			if got := baseM.Counter("ingest.logs_parsed").Value(); got != int64(count) {
				t.Fatalf("baseline parsed counter = %d, want %d", got, count)
			}

			ckPath := filepath.Join(t.TempDir(), "ingest.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := make(chan struct{})
			go cancelOnCheckpoint(ckPath, cancel, stop)
			m1 := obsv.New()
			err := ingest(ctx, m1, nil, ckPath, 4)
			close(stop)
			if err == nil {
				t.Skip("pass completed before cancellation landed")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted ingest: %v", err)
			}
			ck, err := LoadIngestCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			m2 := obsv.New()
			if err := ingest(context.Background(), m2, ck, ckPath, 1); err != nil {
				t.Fatalf("resumed ingest: %v", err)
			}
			if got := stripped(m2); got != baseline {
				t.Errorf("resumed metrics differ from uninterrupted baseline:\n%s\nvs\n%s", got, baseline)
			}
		})
	}
}
