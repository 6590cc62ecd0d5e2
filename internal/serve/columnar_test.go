package serve

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/units"
)

// corpusArchive writes n small Summit logs into a campaign archive and
// returns its path.
func corpusArchive(t *testing.T, dir string, n int) string {
	t.Helper()
	sys := systems.NewSummit()
	path := filepath.Join(dir, "campaign.dgar")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := logfmt.NewArchiveWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: uint64(2000 + i), UserID: uint64(1 + i%3), NProcs: 8,
			StartTime: int64(i) * 3600, EndTime: int64(i)*3600 + 1800,
			Metadata: map[string]string{"domain": "Chemistry"},
		})
		c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(uint64(i), 11)))
		c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/chem/out%d.h5", i), 0, units.MiB, 0)
		c.Read(darshan.ModuleSTDIO, "/mnt/bb/chem/run.log", 0, 64*units.KiB, 0)
		if err := aw.Append(rt.Finalize()); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoreIngestColumnar checks a columnar source routes through the
// columnar fold and publishes a report byte-identical to the row-oriented
// archive — whatever the files are called: the service goes by the header
// core.Open reads, so a campaign uploaded as campaign.bin ingests exactly
// as ioanalyze -archive campaign.bin does.
func TestStoreIngestColumnar(t *testing.T) {
	dir := t.TempDir()
	archive := corpusArchive(t, dir, 4)
	columnar := filepath.Join(dir, "other.dgc")
	if _, err := core.ConvertArchive(context.Background(), archive, columnar, core.ConvertOptions{}); err != nil {
		t.Fatal(err)
	}
	neutral := map[string]string{archive: filepath.Join(dir, "row.bin"), columnar: filepath.Join(dir, "col.bin")}
	for from, to := range neutral {
		raw, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sys := systems.NewSummit()
	st := NewStore()

	row, rowRes, err := st.Ingest(context.Background(), "row", sys, archive, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rowRes.Parsed != 4 {
		t.Fatalf("parsed %d of the archive's logs, want 4", rowRes.Parsed)
	}
	want := report.Everything(row.Report)
	for i, src := range []string{columnar, neutral[columnar], neutral[archive]} {
		snap, res, err := st.Ingest(context.Background(), fmt.Sprintf("ds%d", i), sys, src, core.IngestOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Parsed != 4 {
			t.Errorf("%s: parsed %d, want 4", src, res.Parsed)
		}
		if report.Everything(snap.Report) != want {
			t.Errorf("%s rendered a different report than the archive", src)
		}
	}
}
