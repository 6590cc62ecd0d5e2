package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// resumeCfg is a campaign small enough to run many times in a test but
// large enough to span several checkpoint batches.
var resumeCfg = workload.Config{Seed: 8, JobScale: 0.0002, FileScale: 0.02}

// runToCompletion resumes a campaign from its on-disk checkpoint and runs
// it to the end, returning the rendered report.
func runToCompletion(t *testing.T, ckPath string, workers int) string {
	t.Helper()
	ck, err := LoadIngestCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	c, err := NewCampaign(ck.System, ck.Config)
	if err != nil {
		t.Fatalf("rebuilding campaign: %v", err)
	}
	c.Workers = workers
	rep, err := c.RunContext(context.Background(), RunOptions{
		CheckpointPath: ckPath, CheckpointEvery: 2, Resume: ck,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return report.Everything(rep)
}

// TestCampaignKillAndResume is the crash-safety property test: a campaign
// cancelled at an arbitrary point, then resumed from its checkpoint —
// possibly with a different worker count — must render a report
// byte-identical to the uninterrupted run.
func TestCampaignKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	baselineCamp, err := NewCampaign("Summit", resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	var totalLogs atomic.Int64
	baseRep, err := baselineCamp.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		totalLogs.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := report.Everything(baseRep)
	n := totalLogs.Load()
	if n < 6 {
		t.Fatalf("corpus too small to interrupt meaningfully: %d logs", n)
	}

	for _, tc := range []struct {
		name        string
		cancelAfter int64
		workers     int // interrupted run
		resumeWith  int // resumed run
	}{
		{"early-1worker", 1, 1, 4},
		{"mid-4workers", n / 2, 4, 1},
		{"late-2workers", n - 2, 2, 3},
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
			var seen atomic.Int64
			partial, err := c.RunContext(ctx, RunOptions{
				Sink: func(jobIdx, logIdx int, log *darshan.Log) error {
					if seen.Add(1) == tc.cancelAfter {
						cancel()
					}
					return nil
				},
				CheckpointPath:  ckPath,
				CheckpointEvery: 2,
			})
			if err == nil {
				// The cancel landed after the final batch: the run completed,
				// removed its checkpoint, and must already match.
				if got := report.Everything(partial); got != baseline {
					t.Error("completed-despite-cancel report differs from baseline")
				}
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: %v", err)
			}
			if partial == nil {
				t.Fatal("cancelled run returned no partial report")
			}
			got := runToCompletion(t, ckPath, tc.resumeWith)
			if got != baseline {
				t.Errorf("resumed report differs from uninterrupted baseline")
			}
			if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("checkpoint not removed after completion: %v", err)
			}
		})
	}
}

// archiveSink is the test double for iostudy's -save path: an archive
// writer behind a mutex, with the Flush+fsync SyncSink the checkpoint
// machinery calls at every batch boundary.
type archiveSink struct {
	mu sync.Mutex
	f  *os.File
	aw *logfmt.ArchiveWriter
}

func (s *archiveSink) sink(jobIdx, logIdx int, log *darshan.Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aw.Append(log)
}

func (s *archiveSink) sync() (int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.aw.Flush(); err != nil {
		return 0, 0, err
	}
	if err := s.f.Sync(); err != nil {
		return 0, 0, err
	}
	return s.aw.Offset(), s.aw.Count(), nil
}

func (s *archiveSink) close(t *testing.T) {
	t.Helper()
	if err := s.aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignResumeWithArchiveSink interrupts a campaign that is saving
// its logs to an archive, resumes with the archive truncated to the
// checkpoint's durable offset, and checks the final archive is complete:
// same entry count as an uninterrupted save, and ingesting it reproduces
// the baseline analysis byte for byte.
func TestCampaignResumeWithArchiveSink(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	sys := systems.NewSummit()

	// Uninterrupted save: the reference archive.
	refPath := filepath.Join(t.TempDir(), "ref.dgar")
	ref := &archiveSink{}
	var err error
	if ref.f, err = os.Create(refPath); err != nil {
		t.Fatal(err)
	}
	if ref.aw, err = logfmt.NewArchiveWriter(ref.f); err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign("Summit", resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ref.sink); err != nil {
		t.Fatal(err)
	}
	wantEntries := ref.aw.Count()
	ref.close(t)
	baseRep, baseRes, err := IngestArchive(context.Background(), sys, refPath, IngestOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Parsed != wantEntries {
		t.Fatalf("reference archive: parsed %d of %d", baseRes.Parsed, wantEntries)
	}
	baseline := report.Everything(baseRep)

	for _, row := range []struct {
		name     string
		cancelAt int64 // the sunk log that cancels the run
		every    int   // CheckpointEvery, in jobs
	}{
		{"mid-run", int64(wantEntries / 2), 2},
		// One batch holds the whole campaign, so the only checkpoint is the
		// cancel's, and the archive offset it records is the one taken
		// before the first batch: the header, with no entries.
		{"first-batch", 1, 1 << 20},
	} {
		t.Run(row.name, func(t *testing.T) {
			// Interrupted save.
			dir := t.TempDir()
			savePath := filepath.Join(dir, "save.dgar")
			ckPath := filepath.Join(dir, "campaign.ckpt")
			s := &archiveSink{}
			var err error
			if s.f, err = os.Create(savePath); err != nil {
				t.Fatal(err)
			}
			if s.aw, err = logfmt.NewArchiveWriter(s.f); err != nil {
				t.Fatal(err)
			}
			c2, err := NewCampaign("Summit", resumeCfg)
			if err != nil {
				t.Fatal(err)
			}
			c2.Workers = 3
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			_, err = c2.RunContext(ctx, RunOptions{
				Sink: func(jobIdx, logIdx int, log *darshan.Log) error {
					if seen.Add(1) == row.cancelAt {
						cancel()
					}
					return s.sink(jobIdx, logIdx, log)
				},
				SyncSink:        s.sync,
				CheckpointPath:  ckPath,
				CheckpointEvery: row.every,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: %v", err)
			}
			// Simulate the crash: the writer is abandoned (tail past the
			// durable offset may be torn), only the checkpoint knows the safe
			// length.
			s.f.Close()

			ck, err := LoadIngestCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			aw2, f2, err := logfmt.OpenArchiveAppend(savePath, ck.ArchiveBytes, ck.ArchiveEntries)
			if err != nil {
				t.Fatal(err)
			}
			s2 := &archiveSink{f: f2, aw: aw2}
			c3, err := NewCampaign(ck.System, ck.Config)
			if err != nil {
				t.Fatal(err)
			}
			c3.Workers = 2
			if _, err := c3.RunContext(context.Background(), RunOptions{
				Sink: s2.sink, SyncSink: s2.sync,
				CheckpointPath: ckPath, CheckpointEvery: row.every, Resume: ck,
			}); err != nil {
				t.Fatal(err)
			}
			gotEntries := s2.aw.Count()
			s2.close(t)
			if gotEntries != wantEntries {
				t.Fatalf("resumed archive has %d entries, want %d", gotEntries, wantEntries)
			}
			rep, res, err := IngestArchive(context.Background(), sys, savePath, IngestOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Parsed != wantEntries || res.Failed != 0 {
				t.Fatalf("resumed archive: parsed %d failed %d, want %d/0", res.Parsed, res.Failed, wantEntries)
			}
			if report.Everything(rep) != baseline {
				t.Error("analysis of resumed archive differs from uninterrupted archive")
			}
		})
	}
}

// cancelOnCheckpoint cancels ctx once the checkpoint file first appears, so
// the cancellation lands at an arbitrary point mid-pass. The exact point is
// scheduling-dependent by design — resume must be exact wherever it lands.
func cancelOnCheckpoint(ckPath string, cancel context.CancelFunc, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(200 * time.Microsecond):
		}
		if _, err := os.Stat(ckPath); err == nil {
			cancel()
			return
		}
	}
}

// TestIngestKillAndResume is the ingestion half of the crash-safety
// property: an ingestion pass over every kind of source, cancelled mid-run
// and resumed from its checkpoint — through Ingest on nothing but the
// checkpoint's own Source — renders the identical report, across differing
// worker counts.
func TestIngestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, archive, count := buildCorpus(t)
	sys := systems.NewSummit()
	columnar := filepath.Join(t.TempDir(), "campaign.dgc")
	if _, err := ConvertArchive(context.Background(), archive, columnar, ConvertOptions{SegmentLogs: 4}); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.darshan"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus listing: %v (%d)", err, len(paths))
	}

	for _, row := range []struct {
		name, mode, source string
		logs               int
		// A one-item source has no batch boundary to be caught at: its only
		// checkpoint is the one a cancelled first batch leaves behind.
		cancelFirst bool
	}{
		{name: "dir", mode: "dir", source: dir, logs: count},
		{name: "archive", mode: "archive", source: archive, logs: count},
		{name: "columnar", mode: "columnar", source: columnar, logs: count},
		{name: "single-log", mode: "dir", source: paths[0], logs: 1, cancelFirst: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			baseRep, baseRes, err := Ingest(context.Background(), sys, row.source, IngestOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if baseRes.Parsed != row.logs {
				t.Fatalf("baseline parsed %d of %d", baseRes.Parsed, row.logs)
			}
			baseline := report.Everything(baseRep)

			ckPath := filepath.Join(t.TempDir(), "ingest.ckpt")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := make(chan struct{})
			if row.cancelFirst {
				cancel()
			} else {
				go cancelOnCheckpoint(ckPath, cancel, stop)
			}
			_, _, err = Ingest(ctx, sys, row.source, IngestOptions{Workers: 4, CheckpointPath: ckPath, CheckpointEvery: 3})
			close(stop)
			if err == nil {
				// Pass finished before the watcher saw a checkpoint (tiny
				// corpus): nothing to resume, determinism is covered elsewhere.
				t.Skip("pass completed before cancellation landed")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted ingest: %v", err)
			}
			ck, err := LoadIngestCheckpoint(ckPath)
			if err != nil {
				t.Fatalf("loading ingest checkpoint: %v", err)
			}
			if ck.Mode != row.mode || ck.Source != row.source {
				t.Fatalf("checkpoint is a %q pass over %s, want %q over %s", ck.Mode, ck.Source, row.mode, row.source)
			}
			if row.mode == "dir" && len(ck.Paths) != row.logs {
				t.Fatalf("checkpoint froze %d paths, want %d", len(ck.Paths), row.logs)
			}
			rep, res, err := Ingest(context.Background(), sys, ck.Source,
				IngestOptions{Workers: 1, CheckpointPath: ckPath, CheckpointEvery: 3, Resume: ck})
			if err != nil {
				t.Fatalf("resumed ingest: %v", err)
			}
			if res.Parsed != row.logs || res.Failed != 0 {
				t.Fatalf("resumed: parsed %d failed %d, want %d/0", res.Parsed, res.Failed, row.logs)
			}
			if report.Everything(rep) != baseline {
				t.Error("resumed ingest report differs from uninterrupted baseline")
			}
			if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("ingest checkpoint not removed after completion: %v", err)
			}
		})
	}
}

// TestIngestDirQuarantine is the acceptance test for hardened ingestion: a
// truncated log and a zlib bomb dropped into the corpus must be rejected
// with typed errors, moved to the quarantine directory, and recorded in the
// manifest — while the healthy corpus analyzes exactly as before.
func TestIngestDirQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, count := copyCorpusDir(t)
	sys := systems.NewSummit()
	baseRep, _, err := Ingest(context.Background(), sys, dir, IngestOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseline := report.Everything(baseRep)

	// A healthy log to mutilate.
	paths, err := filepath.Glob(filepath.Join(dir, "*.darshan"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus listing: %v (%d)", err, len(paths))
	}
	good, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Truncated: cut inside the first section's payload.
	trunc := append([]byte(nil), good[:len(good)/2]...)
	if err := os.WriteFile(filepath.Join(dir, "aaa_trunc.darshan"), trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	// Zlib bomb: the first section claims a 4 GiB uncompressed size, under a
	// section CRC that holds. The decoder must reject it before inflating
	// anything. The section starts after the 14-byte file header; its CRC
	// covers its first ten header bytes and its compressed bytes.
	bomb := append([]byte(nil), good...)
	sec := bomb[14:]
	binary.LittleEndian.PutUint32(sec[2:], 0xFFFFFFFF)
	stream := sec[14 : 14+binary.LittleEndian.Uint32(sec[6:])]
	binary.LittleEndian.PutUint32(sec[10:], crc32.Update(crc32.ChecksumIEEE(sec[:10]), crc32.IEEETable, stream))
	if err := os.WriteFile(filepath.Join(dir, "aab_bomb.darshan"), bomb, 0o644); err != nil {
		t.Fatal(err)
	}

	qdir := filepath.Join(t.TempDir(), "quarantine")
	rep, res, err := Ingest(context.Background(), sys, dir, IngestOptions{
		Workers: 4, QuarantineDir: qdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != count || res.Failed != 2 || res.Quarantined != 2 {
		t.Fatalf("parsed %d failed %d quarantined %d, want %d/2/2",
			res.Parsed, res.Failed, res.Quarantined, count)
	}
	if report.Everything(rep) != baseline {
		t.Error("report over quarantined corpus differs from clean baseline")
	}
	// The bad files left the corpus and arrived in quarantine.
	for _, name := range []string{"aaa_trunc.darshan", "aab_bomb.darshan"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still in corpus dir: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(qdir, name)); err != nil {
			t.Errorf("%s not in quarantine: %v", name, err)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(qdir, "MANIFEST.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(manifest), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("manifest has %d lines, want 2:\n%s", len(lines), manifest)
	}
	if !strings.Contains(lines[0], "aaa_trunc") || !strings.Contains(lines[0], "\ttruncated\t") {
		t.Errorf("manifest line 0 = %q, want truncated aaa_trunc entry", lines[0])
	}
	if !strings.Contains(lines[1], "aab_bomb") || !strings.Contains(lines[1], "\tlimit-exceeded\t") {
		t.Errorf("manifest line 1 = %q, want limit-exceeded aab_bomb entry", lines[1])
	}
	// A second pass over the cleaned corpus is failure-free.
	_, res2, err := Ingest(context.Background(), sys, dir, IngestOptions{Workers: 2})
	if err != nil || res2.Failed != 0 || res2.Parsed != count {
		t.Fatalf("post-quarantine pass: parsed %d failed %d err %v", res2.Parsed, res2.Failed, err)
	}
}

// TestIngestArchiveQuarantine checks archive mode extracts undecodable
// entries into the quarantine directory: a well-framed garbage entry is
// skipped, extracted byte-for-byte, and manifested; the rest of the
// archive ingests normally. Workers copy each entry into a buffer they
// reuse for their next one, so the garbage is placed both last and first —
// first, and larger than every entry after it, so that a worker's next
// pull would overwrite it in place had the failure not kept its own copy.
func TestIngestArchiveQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	_, archive, count := buildCorpus(t)
	sys := systems.NewSummit()
	raw, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, e := range corpusEntries(t) {
		largest = max(largest, len(e))
	}
	const header = len(logfmt.ArchiveMagic) + 2 // magic, u16 version
	for _, tc := range []struct {
		name    string
		garbage []byte
		at      int // byte offset of the spliced frame
		index   int // its entry index
	}{
		{"last", []byte("XXXX this is not a darshan log, framing intact"), len(raw) - 4, count},
		{"first-and-largest", append([]byte("XXXX"), bytes.Repeat([]byte{'x'}, largest+1024)...), header, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var frame [4]byte
			binary.LittleEndian.PutUint32(frame[:], uint32(len(tc.garbage)))
			mutated := append([]byte(nil), raw[:tc.at]...)
			mutated = append(mutated, frame[:]...)
			mutated = append(mutated, tc.garbage...)
			mutated = append(mutated, raw[tc.at:]...)
			path := filepath.Join(t.TempDir(), "mixed.dgar")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}

			qdir := filepath.Join(t.TempDir(), "quarantine")
			_, res, err := IngestArchive(context.Background(), sys, path, IngestOptions{
				Workers: 3, QuarantineDir: qdir,
			})
			if err != nil {
				t.Fatalf("framing is intact, ingest should not fail terminally: %v", err)
			}
			if res.Parsed != count || res.Failed != 1 || res.Quarantined != 1 {
				t.Fatalf("parsed %d failed %d quarantined %d, want %d/1/1",
					res.Parsed, res.Failed, res.Quarantined, count)
			}
			extracted, err := os.ReadFile(filepath.Join(qdir, fmt.Sprintf("entry-%06d.darshan", tc.index)))
			if err != nil {
				t.Fatalf("quarantined entry missing: %v", err)
			}
			if !bytes.Equal(extracted, tc.garbage) {
				t.Errorf("quarantined entry does not match the original bytes: starts %q", extracted[:min(8, len(extracted))])
			}
			manifest, err := os.ReadFile(filepath.Join(qdir, "MANIFEST.tsv"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(manifest), "\tbad-magic\t") {
				t.Errorf("manifest = %q, want a bad-magic entry", manifest)
			}
		})
	}
}
