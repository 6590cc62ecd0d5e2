package core

import (
	"context"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/iosim/systems"
)

// Folding a second pass into a caller-owned aggregator must accumulate: the
// Into report after ingesting the corpus twice carries double the counts of
// one pass, and matches ingesting into a clone of a one-pass aggregator.
func TestIngestIntoAccumulates(t *testing.T) {
	dir, _, n := buildCorpus(t)
	sys := systems.NewSummit()

	// One plain pass, for the baseline counts.
	rep1, res1, err := Ingest(context.Background(), sys, dir, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Parsed != n {
		t.Fatalf("parsed %d of %d", res1.Parsed, n)
	}

	// Two passes folding into the same aggregator.
	agg := analysis.NewAggregator(sys)
	if _, _, err := Ingest(context.Background(), sys, dir, IngestOptions{Into: agg}); err != nil {
		t.Fatal(err)
	}
	rep2, _, err := Ingest(context.Background(), sys, dir, IngestOptions{Into: agg})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Summary.Logs != 2*rep1.Summary.Logs {
		t.Errorf("after two Into passes logs = %d, want %d", rep2.Summary.Logs, 2*rep1.Summary.Logs)
	}
	if rep2.Summary.Jobs != rep1.Summary.Jobs {
		t.Errorf("re-ingesting the same jobs changed the job count: %d vs %d",
			rep2.Summary.Jobs, rep1.Summary.Jobs)
	}
	if agg.Logs() != 2*rep1.Summary.Logs {
		t.Errorf("aggregator holds %d logs, want %d", agg.Logs(), 2*rep1.Summary.Logs)
	}
}

// The copy-on-write path ioserved uses: ingest into a clone, and the frozen
// original must not move.
func TestIngestIntoCloneLeavesSourceFrozen(t *testing.T) {
	dir, _, _ := buildCorpus(t)
	sys := systems.NewSummit()

	base := analysis.NewAggregator(sys)
	if _, _, err := Ingest(context.Background(), sys, dir, IngestOptions{Into: base}); err != nil {
		t.Fatal(err)
	}
	before := base.Logs()
	clone := base.Clone()
	if _, _, err := Ingest(context.Background(), sys, dir, IngestOptions{Into: clone}); err != nil {
		t.Fatal(err)
	}
	if base.Logs() != before {
		t.Errorf("ingesting into the clone moved the frozen base: %d -> %d", before, base.Logs())
	}
	if clone.Logs() != 2*before {
		t.Errorf("clone logs = %d, want %d", clone.Logs(), 2*before)
	}
}

func TestIngestIntoRejectsMisuse(t *testing.T) {
	dir, _, _ := buildCorpus(t)
	summit := systems.NewSummit()
	cori := systems.NewCori()

	wrong := analysis.NewAggregator(cori)
	if _, _, err := Ingest(context.Background(), summit, dir, IngestOptions{Into: wrong}); err == nil {
		t.Error("system-mismatched Into aggregator was accepted")
	}

	agg := analysis.NewAggregator(summit)
	opts := IngestOptions{Into: agg, Resume: &IngestCheckpoint{System: "Summit", Mode: "dir", Source: dir}}
	if _, _, err := Ingest(context.Background(), summit, dir, opts); err == nil {
		t.Error("Into combined with Resume was accepted")
	}
}
