package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

// tinyCorpus writes n small hand-built Summit logs into dir as loose
// .darshan files — no campaign generation, so tests over it run in -short
// mode — and returns the logs.
func tinyCorpus(t *testing.T, dir string, n int) []*darshan.Log {
	t.Helper()
	sys := systems.NewSummit()
	logs := make([]*darshan.Log, n)
	for i := range logs {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: uint64(3000 + i), UserID: uint64(1 + i%3), NProcs: 8,
			StartTime: int64(i) * 3600, EndTime: int64(i)*3600 + 1800,
			Metadata: map[string]string{"domain": "Physics"},
		})
		c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(uint64(i), 5)))
		c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/phys/out%d.h5", i), 0, units.MiB, 0)
		logs[i] = rt.Finalize()
		if err := logfmt.WriteFile(filepath.Join(dir, fmt.Sprintf("job%05d.darshan", i)), logs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return logs
}

// TestOpenKinds is the table of what Open makes of a path: a directory is a
// directory whatever it is called, and a file is what its first four bytes
// say, whatever it is called.
func TestOpenKinds(t *testing.T) {
	root := t.TempDir()
	sub := func(name string) string {
		p := filepath.Join(root, name)
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	dir, dirNamedDgc := sub("logs"), sub("x.dgc")
	logs := tinyCorpus(t, dir, 3)
	tinyCorpus(t, dirNamedDgc, 3)
	archive := filepath.Join(root, "campaign.dgar")
	if err := logfmt.WriteArchiveFile(archive, logs); err != nil {
		t.Fatal(err)
	}
	columnar := filepath.Join(root, "campaign.dgc")
	if _, err := Convert(context.Background(), dir, columnar, ConvertOptions{SegmentLogs: 2}); err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(dir, "job00000.darshan")
	// The same three files under a name that says nothing.
	neutral := func(from string) string {
		raw, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		to := from + ".bin"
		if err := os.WriteFile(to, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return to
	}
	write := func(name, content string) string {
		p := filepath.Join(root, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name, path string
		mode       string // "" = Open must fail
		items      int
		errIs      error
		errSays    []string
	}{
		{name: "dir", path: dir, mode: "dir", items: 3},
		{name: "empty dir", path: sub("empty"), mode: "dir", items: 0},
		{name: "single log", path: single, mode: "dir", items: 1},
		{name: "archive", path: archive, mode: "archive", items: 3},
		{name: "columnar", path: columnar, mode: "columnar", items: 2},
		{name: "single log, neutral name", path: neutral(single), mode: "dir", items: 1},
		{name: "archive, neutral name", path: neutral(archive), mode: "archive", items: 3},
		{name: "columnar, neutral name", path: neutral(columnar), mode: "columnar", items: 2},
		{name: "dir named x.dgc", path: dirNamedDgc, mode: "dir", items: 3},
		{name: "garbage", path: write("garbage.dgar", "XXXX is none of them"), errIs: logfmt.ErrBadMagic,
			errSays: []string{`"XXXX"`, `"DGOL"`, `"DGAR"`, `"DGCF"`}},
		{name: "short file", path: write("short.darshan", "DG"), errIs: logfmt.ErrBadMagic,
			errSays: []string{`"DG"`, `"DGOL"`, `"DGAR"`, `"DGCF"`}},
		{name: "missing path", path: filepath.Join(root, "nope"), errIs: os.ErrNotExist},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := Open(c.path, logfmt.DecodeLimits{})
			if c.mode == "" {
				if !errors.Is(err, c.errIs) {
					t.Fatalf("Open = %v, want an error that is %v", err, c.errIs)
				}
				for _, want := range c.errSays {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %s", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer src.close()
			if src.mode() != c.mode {
				t.Errorf("mode %q, want %q", src.mode(), c.mode)
			}
			n := 0
			for {
				item, ok, err := src.next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if item.index != n {
					t.Errorf("item %d carries index %d", n, item.index)
				}
				n++
			}
			if n != c.items || src.remaining() != 0 {
				t.Errorf("walked %d items (remaining %d), want %d (0)", n, src.remaining(), c.items)
			}
		})
	}
}

// TestFailingPassesLeakNoDescriptors runs passes that fail at every early
// exit the driver has — the source will not open, the resume skip runs off
// the end of the archive, the pass is cancelled before its first batch — with
// a QuarantineDir set, and requires the process's open-descriptor count to
// stay put. The manifest used to be opened before the source and closed only
// on the clean-finish path, so each of these leaked one descriptor per pass.
func TestFailingPassesLeakNoDescriptors(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd here: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	archive := filepath.Join(dir, "campaign.dgar")
	if err := logfmt.WriteArchiveFile(archive, tinyCorpus(t, dir, 2)); err != nil {
		t.Fatal(err)
	}
	sys := systems.NewSummit()
	opts := IngestOptions{Workers: 1, QuarantineDir: filepath.Join(dir, "quarantine")}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	pastTheEnd := opts
	pastTheEnd.Resume = &IngestCheckpoint{System: sys.Name, Mode: "archive", Source: archive, EntriesDone: 99}

	before := openFDs()
	for i := 0; i < 200; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, _, err = IngestArchive(context.Background(), sys, filepath.Join(dir, "missing.dgar"), opts)
		case 1:
			_, _, err = IngestArchive(context.Background(), sys, archive, pastTheEnd)
		case 2:
			_, _, err = IngestArchive(cancelled, sys, archive, opts)
		}
		if err == nil {
			t.Fatalf("pass %d was meant to fail", i)
		}
	}
	if after := openFDs(); after > before {
		t.Errorf("open descriptors grew from %d to %d over 200 failing passes", before, after)
	}
}

// TestRejectedLogStaysOutOfTheReport: a log the fold rejects — its second
// file is on a path outside the system's mounts — is counted failed, and the
// report carries exactly the logs the pass says it parsed, not those plus
// whatever the rejected log folded before the fold gave up.
func TestRejectedLogStaysOutOfTheReport(t *testing.T) {
	dir := t.TempDir()
	tinyCorpus(t, dir, 4)
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 9, UserID: 1, NProcs: 1, StartTime: 0, EndTime: 60})
	for _, p := range []string{"/gpfs/alpine/phys/ok.dat", "/dev/shm/x"} {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: p, Rank: 0,
			Kind: darshan.OpWrite, Size: 100, Start: 1, End: 2})
	}
	if err := logfmt.WriteFile(filepath.Join(dir, "job00001-foreign.darshan"), rt.Finalize()); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		rep, res, err := Ingest(context.Background(), systems.NewSummit(), dir, IngestOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Parsed != 4 || res.Failed != 1 {
			t.Fatalf("workers=%d: parsed %d, failed %d; want 4 and 1", workers, res.Parsed, res.Failed)
		}
		if rep.Summary.Logs != int64(res.Parsed) || rep.Summary.Files != 4 {
			t.Errorf("workers=%d: report has %d logs and %d files for %d parsed logs of one file each",
				workers, rep.Summary.Logs, rep.Summary.Files, res.Parsed)
		}
	}
}
