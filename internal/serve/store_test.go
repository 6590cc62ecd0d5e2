package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iolayers/internal/checkpoint"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/httpapi"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// corpusDir writes n small hand-built Summit logs into a temp directory.
func corpusDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	sys := systems.NewSummit()
	for i := 0; i < n; i++ {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: uint64(1000 + i), UserID: uint64(1 + i%3), NProcs: 8,
			StartTime: int64(i) * 3600, EndTime: int64(i)*3600 + 1800,
			Metadata: map[string]string{"domain": "Physics"},
		})
		c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(uint64(i), 7)))
		c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/phys/out%d.h5", i), 0, units.MiB, 0)
		c.Read(darshan.ModuleSTDIO, "/mnt/bb/phys/run.log", 0, 64*units.KiB, 0)
		path := filepath.Join(dir, fmt.Sprintf("job%05d.darshan", i))
		if err := logfmt.WriteFile(path, rt.Finalize()); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStoreIngestPublishesGenerations(t *testing.T) {
	dir := corpusDir(t, 4)
	sys := systems.NewSummit()
	st := NewStore()

	snap1, res, err := st.Ingest(context.Background(), "prod", sys, dir, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Gen != 1 || res.Parsed != 4 {
		t.Fatalf("gen=%d parsed=%d", snap1.Gen, res.Parsed)
	}
	got, ok := st.Get("prod")
	if !ok || got != snap1 {
		t.Fatal("Get did not return the published snapshot")
	}

	// Second ingest: new generation, old snapshot untouched.
	snap2, _, err := st.Ingest(context.Background(), "prod", sys, dir, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Gen != 2 {
		t.Errorf("gen = %d, want 2", snap2.Gen)
	}
	if snap2.Report.Summary.Logs != 2*snap1.Report.Summary.Logs {
		t.Errorf("gen2 logs = %d, want %d", snap2.Report.Summary.Logs, 2*snap1.Report.Summary.Logs)
	}
	if snap1.Report.Summary.Logs != 4 {
		t.Error("re-ingest mutated the frozen generation-1 snapshot")
	}
	if len(snap2.Sources) != 2 {
		t.Errorf("sources = %v", snap2.Sources)
	}
}

func TestStoreIngestSingleFileAndMissingSource(t *testing.T) {
	dir := corpusDir(t, 2)
	sys := systems.NewSummit()
	st := NewStore()

	one := filepath.Join(dir, "job00000.darshan")
	snap, res, err := st.Ingest(context.Background(), "single", sys, one, core.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != 1 || snap.Report.Summary.Logs != 1 {
		t.Errorf("parsed=%d logs=%d", res.Parsed, snap.Report.Summary.Logs)
	}

	if _, _, err := st.Ingest(context.Background(), "single", sys, filepath.Join(dir, "nope"), core.IngestOptions{}); err == nil {
		t.Error("missing source accepted")
	}
	// The failed ingest must not have published.
	if got, _ := st.Get("single"); got.Gen != 1 {
		t.Errorf("failed ingest bumped generation to %d", got.Gen)
	}
}

// TestStoreFailedFirstIngestLeavesNoPhantom is the regression test for
// the phantom-entry leak: Ingest used to create the dataset's entry
// before ingesting, so a failed *first* ingest left a permanent cell in
// Store.datasets — invisible to Get and List, never reclaimed, growing
// the map on every repeated bad upload.
func TestStoreFailedFirstIngestLeavesNoPhantom(t *testing.T) {
	dir := corpusDir(t, 1)
	sys := systems.NewSummit()
	st := NewStore()

	entryCount := func() int {
		st.mu.RLock()
		defer st.mu.RUnlock()
		return len(st.datasets)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("bad%d", i)
		if _, _, err := st.Ingest(context.Background(), name, sys, filepath.Join(dir, "missing"), core.IngestOptions{}); err == nil {
			t.Fatal("missing source accepted")
		}
	}
	if n := entryCount(); n != 0 {
		t.Errorf("5 failed first ingests left %d phantom entries", n)
	}

	// A failed re-ingest into an existing dataset must NOT reclaim it.
	if _, _, err := st.Ingest(context.Background(), "ok", sys, dir, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Ingest(context.Background(), "ok", sys, filepath.Join(dir, "missing"), core.IngestOptions{}); err == nil {
		t.Fatal("missing source accepted")
	}
	if n := entryCount(); n != 1 {
		t.Errorf("failed re-ingest changed the entry count to %d", n)
	}
	if snap, ok := st.Get("ok"); !ok || snap.Gen != 1 {
		t.Error("failed re-ingest disturbed the published generation")
	}

	// And the garbage-collected name is fully reusable.
	if snap, _, err := st.Ingest(context.Background(), "bad0", sys, dir, core.IngestOptions{}); err != nil || snap.Gen != 1 {
		t.Errorf("reusing a GC'd name: gen=%v err=%v", snap, err)
	}
}

// TestIngestThatParsesNothingPublishesNothing pins the one rule the one
// ingest path has: Parsed == 0 is an error, whatever the source is. It used
// to hold for a single garbage file only — a directory or archive in which
// every log was undecodable (Parsed 0, Failed n) published: a fresh name
// became an empty dataset at generation 1, an existing dataset bumped its
// generation over identical data and committed an empty delta to the lake.
func TestIngestThatParsesNothingPublishesNothing(t *testing.T) {
	garbage := []byte("this is not a darshan log at all")
	scratch := t.TempDir()

	garbageDir := filepath.Join(scratch, "garbage-dir")
	emptyDir := filepath.Join(scratch, "empty-dir")
	for _, d := range []string{garbageDir, emptyDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a.darshan", "b.darshan"} {
		if err := os.WriteFile(filepath.Join(garbageDir, name), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	garbageFile := filepath.Join(scratch, "garbage.darshan")
	if err := os.WriteFile(garbageFile, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	// An archive whose framing is intact and whose every entry is garbage:
	// an empty archive with two well-framed entries spliced in front of its
	// terminator.
	raw, err := os.ReadFile(corpusArchive(t, scratch, 0))
	if err != nil {
		t.Fatal(err)
	}
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(garbage)))
	corrupt := append([]byte(nil), raw[:len(raw)-4]...)
	for i := 0; i < 2; i++ {
		corrupt = append(append(corrupt, frame[:]...), garbage...)
	}
	corrupt = append(corrupt, raw[len(raw)-4:]...)
	corruptArchive := filepath.Join(scratch, "corrupt.dgar")
	if err := os.WriteFile(corruptArchive, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	sources := []struct {
		name, path string
		wantInMsg  string // the failure count, or what Open found
	}{
		{"garbage-dir", garbageDir, "2 logs failed"},
		{"corrupt-archive", corruptArchive, "2 logs failed"},
		{"garbage-file", garbageFile, "bad-magic"},
		{"empty-dir", emptyDir, "0 logs failed"},
	}
	for _, src := range sources {
		for _, dataset := range []string{"fresh", "prod"} {
			t.Run(src.name+"/"+dataset, func(t *testing.T) {
				lakeDir := filepath.Join(t.TempDir(), "lake")
				st := lakeStore(t, openLake(t, lakeDir, 0))
				ts, _, _ := newTestServer(t, Config{Store: st}) // publishes "prod" at generation 1
				// logLen counts the records in prod's log, the only file the
				// lake may hold.
				logLen := func() int {
					n := 0
					err := checkpoint.ReplayJournal(filepath.Join(lakeDir, "datasets", "prod", lakeLogName), func(func(any) error) error {
						n++
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return n
				}
				if n := logLen(); n != 1 {
					t.Fatalf("prod's log holds %d records after the set-up ingest, want 1", n)
				}

				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(
					fmt.Sprintf(`{"dataset":%q,"system":"summit","source":%q}`, dataset, src.path)))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Errorf("status %d, want 422 (%s)", resp.StatusCode, body)
				}
				env, ok := httpapi.DecodeError(body)
				if !ok || env.Error.Code != httpapi.CodeIngestFailed {
					t.Errorf("body is not an ingest_failed envelope: %s", body)
				}
				if !strings.Contains(env.Error.Message, src.wantInMsg) {
					t.Errorf("message %q does not say %q", env.Error.Message, src.wantInMsg)
				}

				if snap, ok := st.Get("prod"); !ok || snap.Gen != 1 {
					t.Errorf("prod is at %+v after the rejected ingest, want generation 1", snap)
				}
				if _, ok := st.Get("fresh"); ok {
					t.Error("a dataset was created from an ingest that parsed nothing")
				}
				st.mu.RLock()
				cells := len(st.datasets)
				st.mu.RUnlock()
				if cells != 1 {
					t.Errorf("Store.datasets holds %d cells, want 1 (prod)", cells)
				}
				if n := logLen(); n != 1 {
					t.Errorf("prod's log holds %d records, want 1: the rejected ingest committed to the lake", n)
				}
				if names := lakeFiles(t, lakeDir); len(names) != 1 {
					t.Errorf("lake holds %v, want prod's log alone", names)
				}
				if _, err := os.Stat(filepath.Join(lakeDir, "datasets", "fresh")); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("a rejected first ingest left a dataset directory behind: %v", err)
				}
			})
		}
	}
}

// TestStoreIngestCancelledContext is the regression test for the
// single-log path ignoring ctx: a cancelled (drained) server must refuse
// the ingest without decoding or folding, for every source kind.
func TestStoreIngestCancelledContext(t *testing.T) {
	dir := corpusDir(t, 2)
	one := filepath.Join(dir, "job00000.darshan")
	sys := systems.NewSummit()
	st := NewStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, src := range []string{one, dir} {
		if _, _, err := st.Ingest(ctx, "ds", sys, src, core.IngestOptions{}); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled ingest of %s returned %v, want context.Canceled", src, err)
		}
	}
	if _, ok := st.Get("ds"); ok {
		t.Error("cancelled ingest published a snapshot")
	}
}

func TestStoreRejectsBadNamesAndSystemMismatch(t *testing.T) {
	dir := corpusDir(t, 1)
	st := NewStore()
	summit, cori := systems.NewSummit(), systems.NewCori()

	for _, bad := range []string{"", "a b", "x/y", "née", string(make([]byte, 65))} {
		if _, _, err := st.Ingest(context.Background(), bad, summit, dir, core.IngestOptions{}); err == nil {
			t.Errorf("dataset name %q accepted", bad)
		}
	}
	if !ValidDatasetName("prod-2020.v1_x") {
		t.Error("legitimate name rejected")
	}

	if _, _, err := st.Ingest(context.Background(), "ds", summit, dir, core.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Ingest(context.Background(), "ds", cori, dir, core.IngestOptions{}); err == nil {
		t.Error("cross-system ingest into an existing dataset accepted")
	}
}

func TestStoreListSorted(t *testing.T) {
	dir := corpusDir(t, 1)
	sys := systems.NewSummit()
	st := NewStore()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, _, err := st.Ingest(context.Background(), name, sys, dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	list := st.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[1].Name != "mid" || list[2].Name != "zeta" {
		names := make([]string, len(list))
		for i, s := range list {
			names[i] = s.Name
		}
		t.Errorf("list order = %v", names)
	}
}
