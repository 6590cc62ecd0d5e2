package serve

import (
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
)

// corpusHash digests every log in dir, in name order.
func corpusHash(t *testing.T, dir string) [32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(data)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// The fixture contract: same (system, n, seed) → byte-identical corpus →
// byte-identical report, on any host, in any process. This is what lets
// N replicas boot the same fixture independently and still satisfy the
// router's byte-identity contract.
func TestWriteFixtureDeterministic(t *testing.T) {
	sys := systems.NewSummit()
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := WriteFixture(dirA, sys, 10, 42); err != nil {
		t.Fatal(err)
	}
	if err := WriteFixture(dirB, sys, 10, 42); err != nil {
		t.Fatal(err)
	}
	if corpusHash(t, dirA) != corpusHash(t, dirB) {
		t.Fatal("two fixture runs with the same seed produced different bytes")
	}

	// A different seed must actually change the corpus.
	dirC := t.TempDir()
	if err := WriteFixture(dirC, sys, 10, 43); err != nil {
		t.Fatal(err)
	}
	if corpusHash(t, dirA) == corpusHash(t, dirC) {
		t.Fatal("seed 42 and 43 produced identical corpora")
	}

	// The corpus ingests cleanly and renders a report touching both layers.
	store := NewStore()
	snap, res, err := store.Ingest(context.Background(), "fx", sys, dirA, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != 10 || res.Failed != 0 {
		t.Fatalf("parsed %d failed %d, want 10/0", res.Parsed, res.Failed)
	}
	bodyA, err := report.RenderString(snap.Report, report.Options{Format: report.FormatJSON})
	if err != nil {
		t.Fatal(err)
	}

	storeB := NewStore()
	snapB, _, err := storeB.Ingest(context.Background(), "fx", sys, dirB, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bodyB, err := report.RenderString(snapB.Report, report.Options{Format: report.FormatJSON})
	if err != nil {
		t.Fatal(err)
	}
	if bodyA != bodyB {
		t.Fatal("reports from two same-seed fixtures differ")
	}

	// Cori fixtures must route onto Cori mounts without panicking.
	dirCori := t.TempDir()
	if err := WriteFixture(dirCori, systems.NewCori(), 4, 7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStore().Ingest(context.Background(), "cx", systems.NewCori(), dirCori, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFixtureValidation(t *testing.T) {
	if err := WriteFixture(t.TempDir(), nil, 1, 1); err == nil {
		t.Error("nil system accepted")
	}
	if err := WriteFixture(t.TempDir(), systems.NewSummit(), 0, 1); err == nil {
		t.Error("zero logs accepted")
	}
}

func TestParseFixtureSpec(t *testing.T) {
	f, err := ParseFixtureSpec("golden:16:9")
	if err != nil || f.Name != "golden" || f.Logs != 16 || f.Seed != 9 {
		t.Errorf("parsed %+v (err %v)", f, err)
	}
	f, err = ParseFixtureSpec("ds-1:4")
	if err != nil || f.Name != "ds-1" || f.Logs != 4 || f.Seed != 1 {
		t.Errorf("default seed: %+v (err %v)", f, err)
	}
	for _, bad := range badFixtureSpecs {
		if _, err := ParseFixtureSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// badFixtureSpecs are -fixture specs ParseFixtureSpec refuses;
// FuzzParseFixtureSpec starts from them.
var badFixtureSpecs = []string{"", "noseparator", ":4", "name:", "name:0", "name:-2", "name:x", "name:4:x", "bad name:4"}

// FuzzParseFixtureSpec: no spec panics ParseFixtureSpec, and every accepted
// one names a valid dataset with a positive log count.
func FuzzParseFixtureSpec(f *testing.F) {
	f.Add("golden:16:9")
	f.Add("ds-1:4")
	for _, s := range badFixtureSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFixtureSpec(spec)
		if err == nil && (!ValidDatasetName(fs.Name) || fs.Logs <= 0) {
			t.Fatalf("ParseFixtureSpec(%q) accepted %+v", spec, fs)
		}
	})
}
