package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/units"
)

// TestColumnarRoundTripByteIdentical is the tentpole property: a campaign
// converted to columnar form and batch-folded renders a report
// byte-identical to the row-oriented ingest, at every worker count.
func TestColumnarRoundTripByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	archive, columnar, count := convertCorpus(t)
	sys := systems.NewSummit()

	baseRep, baseRes, err := IngestArchive(context.Background(), sys, archive, IngestOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Parsed != count {
		t.Fatalf("baseline parsed %d of %d", baseRes.Parsed, count)
	}
	baseline := report.Everything(baseRep)

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rep, res, err := IngestColumnar(context.Background(), sys, columnar, IngestOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Parsed != count {
				t.Fatalf("columnar fold parsed %d logs of %d", res.Parsed, count)
			}
			if got := report.Everything(rep); got != baseline {
				t.Errorf("columnar report differs from logfmt report (workers=%d)", workers)
			}
		})
	}
}

// TestColumnarKillAndResume extends the crash-safety property to the
// columnar path: a fold cancelled at its first checkpoint and resumed —
// with a different worker count — renders the identical report.
func TestColumnarKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	_, columnar, count := convertCorpus(t)
	sys := systems.NewSummit()

	baseRep, _, err := IngestColumnar(context.Background(), sys, columnar, IngestOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseline := report.Everything(baseRep)

	ckPath := filepath.Join(t.TempDir(), "columnar.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	go cancelOnCheckpoint(ckPath, cancel, stop)
	partial, _, err := IngestColumnar(ctx, sys, columnar, IngestOptions{
		Workers: 3, CheckpointPath: ckPath, CheckpointEvery: 2,
	})
	close(stop)
	if err == nil {
		// The cancel landed after the final batch; the completed report
		// must already match.
		if got := report.Everything(partial); got != baseline {
			t.Error("completed-despite-cancel report differs from baseline")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted fold: %v", err)
	}
	if partial == nil {
		t.Fatal("cancelled fold returned no partial report")
	}

	ck, err := LoadIngestCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	if ck.Mode != "columnar" {
		t.Fatalf("checkpoint mode %q, want columnar", ck.Mode)
	}
	rep, res, err := IngestColumnar(context.Background(), sys, columnar, IngestOptions{
		Workers: 1, CheckpointPath: ckPath, CheckpointEvery: 2, Resume: ck,
	})
	if err != nil {
		t.Fatalf("resumed fold: %v", err)
	}
	if res.Parsed != count {
		// Parsed is cumulative across the resume (the coordinator seeds it
		// from the checkpoint).
		t.Fatalf("resumed pass accounts %d logs (%d at checkpoint); corpus has %d",
			res.Parsed, ck.Parsed, count)
	}
	if got := report.Everything(rep); got != baseline {
		t.Error("resumed columnar report differs from uninterrupted baseline")
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
}

// TestQueryColumnarTotals cross-checks the narrow scan against the full
// aggregation pipeline: unfiltered totals must equal the report's
// per-layer sums, and a volume threshold must prune segments while
// keeping the matching rows.
func TestQueryColumnarTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	archive, columnar, _ := convertCorpus(t)
	sys := systems.NewSummit()

	rep, _, err := IngestArchive(context.Background(), sys, archive, IngestOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantFiles, wantHugeR, wantHugeW int64
	var wantReadB, wantWriteB float64
	for _, lr := range rep.Layers {
		wantFiles += lr.Stats.Files
		wantReadB += lr.Stats.Bytes[analysis.Read]
		wantWriteB += lr.Stats.Bytes[analysis.Write]
		wantHugeR += lr.Stats.HugeFiles[analysis.Read]
		wantHugeW += lr.Stats.HugeFiles[analysis.Write]
	}

	reg := obsv.New()
	tot, err := QueryColumnarTotals(context.Background(), columnar, ColumnarQuery{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if tot.Files != wantFiles {
		t.Errorf("Files = %d, report says %d", tot.Files, wantFiles)
	}
	if float64(tot.ReadBytes) != wantReadB || float64(tot.WriteBytes) != wantWriteB {
		t.Errorf("bytes = (%d, %d), report says (%.0f, %.0f)",
			tot.ReadBytes, tot.WriteBytes, wantReadB, wantWriteB)
	}
	if tot.HugeRead != wantHugeR || tot.HugeWrite != wantHugeW {
		t.Errorf("huge = (%d, %d), report says (%d, %d)",
			tot.HugeRead, tot.HugeWrite, wantHugeR, wantHugeW)
	}
	if tot.SegmentsPruned != 0 {
		t.Errorf("unfiltered scan pruned %d segments", tot.SegmentsPruned)
	}

	// The >1 TiB tail query: every returned file exceeds the threshold in
	// at least one direction, and pruning must not change the answer.
	thr := int64(units.TiB) + 1
	tail, err := QueryColumnarTotals(context.Background(), columnar, ColumnarQuery{MinFileBytes: thr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if tail.Files < tail.HugeRead || tail.Files < tail.HugeWrite {
		t.Errorf("tail query inconsistent: %+v", tail)
	}
	if tail.HugeRead != wantHugeR || tail.HugeWrite != wantHugeW {
		t.Errorf("tail huge counts = (%d, %d), report says (%d, %d)",
			tail.HugeRead, tail.HugeWrite, wantHugeR, wantHugeW)
	}
	if tail.SegmentsPruned == 0 {
		t.Log("no segments pruned by the TiB threshold (corpus may be uniformly huge)")
	}
	if tail.SegmentsScanned+tail.SegmentsPruned != tot.SegmentsScanned {
		t.Errorf("scanned %d + pruned %d != total %d",
			tail.SegmentsScanned, tail.SegmentsPruned, tot.SegmentsScanned)
	}
}

// TestIngestColumnarRejectsWrongFile verifies the strict-kind entry points:
// a logfmt archive handed to IngestColumnar (and a columnar file handed to
// IngestArchive) is refused, and a truncated columnar file fails rather
// than silently shortening the campaign. What Open makes of each kind of
// path is TestOpenKinds.
func TestIngestColumnarRejectsWrongFile(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	archive, columnar, _ := convertCorpus(t)
	sys := systems.NewSummit()

	if _, _, err := IngestColumnar(context.Background(), sys, archive, IngestOptions{}); err == nil {
		t.Error("columnar ingest of a logfmt archive succeeded")
	}
	if _, _, err := IngestArchive(context.Background(), sys, columnar, IngestOptions{}); err == nil {
		t.Error("archive ingest of a columnar file succeeded")
	}

	raw, err := os.ReadFile(columnar)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.dgc")
	if err := os.WriteFile(trunc, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := IngestColumnar(context.Background(), sys, trunc, IngestOptions{}); err == nil {
		t.Error("columnar ingest of a truncated file succeeded")
	}
}
