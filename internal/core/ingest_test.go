package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// corpus is the package's shared fixture: one small seeded Summit campaign,
// persisted as a directory of loose .darshan logs, as one .dgar archive, and
// as the archive's conversion to a columnar file with small segments (so
// worker distribution, pruning, and checkpointing all see multiple
// segments). It is built once per test process — generating and fsyncing it
// per test was two thirds of the package's run time — and is read-only: a
// test that adds, damages or quarantines files works on copyCorpusDir's
// private copy, or writes its mutated archive elsewhere.
var corpus struct {
	once                   sync.Once
	root                   string
	dir, archive, columnar string
	count                  int
	err                    error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if corpus.root != "" {
		os.RemoveAll(corpus.root)
	}
	os.Exit(code)
}

func buildSharedCorpus() error {
	root, err := os.MkdirTemp("", "core-corpus-")
	if err != nil {
		return err
	}
	corpus.root = root
	corpus.dir = filepath.Join(root, "logs")
	corpus.archive = filepath.Join(root, "campaign.dgar")
	corpus.columnar = filepath.Join(root, "campaign.dgc")
	if err := os.Mkdir(corpus.dir, 0o755); err != nil {
		return err
	}

	cfg := workload.Config{Seed: 8, JobScale: 0.0002, FileScale: 0.02}
	campaign, err := NewCampaign("Summit", cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(corpus.archive)
	if err != nil {
		return err
	}
	defer f.Close()
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	_, err = campaign.Run(func(jobIdx, logIdx int, log *darshan.Log) error {
		mu.Lock()
		defer mu.Unlock()
		corpus.count++
		name := filepath.Join(corpus.dir, fmt.Sprintf("job%05d_%05d.darshan", jobIdx, logIdx))
		if err := logfmt.WriteFile(name, log); err != nil {
			return err
		}
		return aw.Append(log)
	})
	if err != nil {
		return err
	}
	if err := aw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if corpus.count == 0 {
		return errors.New("corpus is empty")
	}

	res, err := ConvertArchive(context.Background(), corpus.archive, corpus.columnar, ConvertOptions{SegmentLogs: 8})
	if err != nil {
		return fmt.Errorf("converting: %w", err)
	}
	if res.Logs != corpus.count {
		return fmt.Errorf("converted %d of %d logs", res.Logs, corpus.count)
	}
	if want := (corpus.count + 7) / 8; res.Segments != want {
		return fmt.Errorf("converted into %d segments, want %d", res.Segments, want)
	}
	return nil
}

// buildCorpus returns the shared corpus's log directory, its archive, and
// the log count.
func buildCorpus(t *testing.T) (dir, archive string, count int) {
	t.Helper()
	corpus.once.Do(func() { corpus.err = buildSharedCorpus() })
	if corpus.err != nil {
		t.Fatalf("building the shared corpus: %v", corpus.err)
	}
	return corpus.dir, corpus.archive, corpus.count
}

// convertCorpus returns the shared corpus's archive and its columnar
// conversion.
func convertCorpus(t *testing.T) (archive, columnar string, count int) {
	t.Helper()
	_, archive, count = buildCorpus(t)
	return archive, corpus.columnar, count
}

// copyCorpusDir returns a private byte copy of the shared log directory, for
// tests that write into it or let a pass move files out of it.
func copyCorpusDir(t *testing.T) (dir string, count int) {
	t.Helper()
	src, _, count := buildCorpus(t)
	dir = t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, count
}

// The ingestion determinism guarantee: the same corpus analyzed with 1, 2,
// and 8 workers renders byte-identical reports, for both directory and
// archive sources. Workers pull items as they free up, so which worker
// folds what changes from run to run; the report does not, because the
// fold is partition-invariant (analysis.TestFoldIsPartitionInvariant).
// Each worker count runs twice, to see two schedules.
func TestIngestDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, archive, count := buildCorpus(t)
	sys := systems.NewSummit()

	var baseDir, baseArchive string
	for _, workers := range []int{1, 2, 8, 1, 2, 8} {
		rep, res, err := Ingest(context.Background(), sys, dir, IngestOptions{Workers: workers})
		if err != nil {
			t.Fatalf("Ingest(dir) workers=%d: %v", workers, err)
		}
		if res.Parsed != count || res.Failed != 0 {
			t.Fatalf("Ingest(dir) workers=%d: parsed %d failed %d, want %d/0",
				workers, res.Parsed, res.Failed, count)
		}
		out := report.Everything(rep)
		if baseDir == "" {
			baseDir = out
		} else if out != baseDir {
			t.Errorf("Ingest(dir) workers=%d: report differs from workers=1", workers)
		}

		rep, res, err = IngestArchive(context.Background(), sys, archive, IngestOptions{Workers: workers})
		if err != nil {
			t.Fatalf("IngestArchive workers=%d: %v", workers, err)
		}
		if res.Parsed != count || res.Failed != 0 {
			t.Fatalf("IngestArchive workers=%d: parsed %d failed %d, want %d/0",
				workers, res.Parsed, res.Failed, count)
		}
		out = report.Everything(rep)
		if baseArchive == "" {
			baseArchive = out
		} else if out != baseArchive {
			t.Errorf("IngestArchive workers=%d: report differs from workers=1", workers)
		}
	}
	if baseDir != baseArchive {
		t.Error("directory and archive ingestion render different reports for the same corpus")
	}
}

// A corrupt log in a directory is skipped, counted, and reported — the rest
// of the corpus still aggregates.
func TestIngestDirReportsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, count := copyCorpusDir(t)
	bad := filepath.Join(dir, "aaa_bad.darshan")
	if err := os.WriteFile(bad, []byte("not a darshan log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, res, err := Ingest(context.Background(), systems.NewSummit(), dir, IngestOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != count || res.Failed != 1 {
		t.Fatalf("parsed %d failed %d, want %d/1", res.Parsed, res.Failed, count)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Source, "aaa_bad") {
		t.Fatalf("failures = %+v", res.Failures)
	}
	if rep.Summary.Logs != int64(count) {
		t.Errorf("report logs = %d, want %d", rep.Summary.Logs, count)
	}
}

// Analyzing a campaign against the wrong system must fail log by log, not
// panic the pass: iosim.System.LayerFor panics on unroutable paths (a
// generator-bug invariant for synthesis), and ingestion demotes that to a
// per-log failure since its input is external.
func TestIngestWrongSystemFailsPerLogInsteadOfPanicking(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir, _, count := buildCorpus(t)
	_, res, err := Ingest(context.Background(), systems.NewCori(), dir, IngestOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Logs whose records route onto Summit-only mounts fail; logs without
	// routed file records still parse. The guarantee is no panic, full
	// accounting, and the iosim invariant surfaced as a per-log error.
	if res.Parsed+res.Failed != count || res.Failed == 0 {
		t.Fatalf("parsed %d failed %d, want them to sum to %d with failures", res.Parsed, res.Failed, count)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0].Err.Error(), "is on neither") {
		t.Fatalf("failures = %+v", res.Failures)
	}
}

// A corrupt entry inside an archive is skipped without losing the entries
// after it — entry framing is independent of entry contents.
func TestIngestArchiveContinuesPastCorruptEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	_, archive, count := buildCorpus(t)
	if count < 3 {
		t.Skipf("need ≥3 entries, have %d", count)
	}
	raw, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the framing to the second entry and flip a byte in the middle of
	// its embedded log (past the entry's length prefix).
	off := 6 // archive magic + version
	entryLen := func(o int) int {
		return int(uint32(raw[o]) | uint32(raw[o+1])<<8 | uint32(raw[o+2])<<16 | uint32(raw[o+3])<<24)
	}
	first := entryLen(off)
	off += 4 + first
	second := entryLen(off)
	raw[off+4+second/2] ^= 0x5A
	mutated := filepath.Join(t.TempDir(), "damaged.dgar")
	if err := os.WriteFile(mutated, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, res, err := IngestArchive(context.Background(), systems.NewSummit(), mutated, IngestOptions{Workers: 4})
	if err != nil {
		t.Fatalf("framing is intact, ingest should not fail terminally: %v", err)
	}
	if res.Failed != 1 || res.Parsed != count-1 {
		t.Fatalf("parsed %d failed %d, want %d/1", res.Parsed, res.Failed, count-1)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Source, "entry 1") {
		t.Fatalf("failures = %+v", res.Failures)
	}
	if rep.Summary.Logs != int64(count-1) {
		t.Errorf("report logs = %d, want %d", rep.Summary.Logs, count-1)
	}
}

// A truncated archive is a framing-level failure: everything before the
// damage is ingested and the error is surfaced.
func TestIngestArchiveTruncatedSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	_, archive, count := buildCorpus(t)
	raw, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.dgar")
	if err := os.WriteFile(cut, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, err := IngestArchive(context.Background(), systems.NewSummit(), cut, IngestOptions{Workers: 2})
	if err == nil {
		t.Fatal("expected a framing error for a truncated archive")
	}
	if res.Parsed != count-1 {
		t.Errorf("parsed %d logs before the damage, want %d", res.Parsed, count-1)
	}
}
