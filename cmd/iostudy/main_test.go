package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"iolayers/internal/analysis"
	"iolayers/internal/checkpoint"
	"iolayers/internal/cli"
	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/obsv"
	"iolayers/internal/report"
	"iolayers/internal/workload"
)

// TestMain makes the test binary double as iostudy: command re-executes it
// with runMainEnv set, and then it is the command, not the tests — so the
// tests drive the real main() without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "IOSTUDY_TEST_RUN_MAIN"

// command prepares `iostudy args...` to run in dir.
func command(t *testing.T, dir string, args ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("iostudy %v stderr:\n%s", args, errOut.String())
		}
	})
	return cmd, &out
}

// exitCode is the status a finished command exited with.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var exitErr *exec.ExitError
	switch {
	case errors.As(err, &exitErr):
		return exitErr.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return 0
}

// run executes `iostudy args...` in dir and returns its stdout and exit
// status.
func run(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd, out := command(t, dir, args...)
	code := exitCode(t, cmd.Run())
	return out.String(), code
}

// interrupt starts `iostudy args...` in dir, sends it SIGINT once ready
// reports true, and requires the interrupted exit status.
func interrupt(t *testing.T, dir string, ready func() bool, args ...string) {
	t.Helper()
	cmd, _ := command(t, dir, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(2 * time.Minute)
	for !ready() {
		select {
		case err := <-exited:
			t.Fatalf("iostudy %v exited (%v) before it could be interrupted", args, err)
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("iostudy %v never became ready to interrupt", args)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, <-exited); code != cli.ExitInterrupted {
		t.Fatalf("interrupted iostudy %v exited %d, want %d", args, code, cli.ExitInterrupted)
	}
}

// archiveReport ingests the archive at path and renders its JSON report; a
// damaged archive is an error, not a salvage.
func archiveReport(t *testing.T, path string) string {
	t.Helper()
	rep, res, err := core.Ingest(context.Background(), systems.NewSummit(), path, core.IngestOptions{Workers: 1})
	if err != nil {
		t.Fatalf("ingesting %s: %v", path, err)
	}
	if res.Parsed == 0 || res.Failed != 0 {
		t.Fatalf("ingesting %s: %d logs parsed, %d failed", path, res.Parsed, res.Failed)
	}
	out, err := report.RenderString(rep, report.Options{Format: report.FormatJSON})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// probe and sched print what ioprobe and iosched printed, byte for byte
// (testdata/*.golden were captured from those binaries).
func TestProbeAndSchedGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"probe_summit.golden", []string{"probe", "-samples", "20"}},
		{"probe_cori.golden", []string{"probe", "-system", "cori", "-samples", "20"}},
		{"sched.golden", []string{"sched", "-scale", "0.0005"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, code := run(t, t.TempDir(), tc.args...)
		if code != 0 || got != string(want) {
			t.Errorf("iostudy %v: exit %d, output differs from testdata/%s:\n%s", tc.args, code, tc.golden, got)
		}
	}
}

// gen writes the same log files every time: a digest over the sorted
// "<name> <sha256 of file>" lines pins all 324 of them. The digest changes
// with the log format's version (these are version 2 logs); the logs they
// decode to do not.
func TestGenFilesPinned(t *testing.T) {
	dir := t.TempDir()
	if _, code := run(t, dir, "gen", "-system", "summit", "-scale", "0.0001", "-filescale", "0.02", "-seed", "1", "-out", "logs"); code != 0 {
		t.Fatalf("gen exited %d", code)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "logs"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		lines = append(lines, e.Name()+" "+fileSHA(t, filepath.Join(dir, "logs", e.Name()))+"\n")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	const want = "ee87dfb0bb50a30ad81c2be680223776c3d793c37bff8e8606b886f55c3b6038"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(lines) != 324 || got != want {
		t.Errorf("gen wrote %d files with digest %s, want 324 and %s", len(lines), got, want)
	}
}

// -save writes the same archive bytes every time. Like gen's digest, the
// pin moves with the log format's version and nothing else.
func TestSaveArchivePinned(t *testing.T) {
	dir := t.TempDir()
	if _, code := run(t, dir, "-system", "summit", "-scale", "0.0002", "-filescale", "0.02", "-seed", "1",
		"-workers", "1", "-save", "x.dgar"); code != 0 {
		t.Fatalf("iostudy -save exited %d", code)
	}
	info, err := os.Stat(filepath.Join(dir, "x.dgar"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "3eaeac7965fea6db3144e04a57efa4a172e5297f059750391619abb84f0dfcd4"
	if got := fileSHA(t, filepath.Join(dir, "x.dgar")); info.Size() != 414344 || got != want {
		t.Errorf("archive is %d bytes with sha256 %s, want 414344 and %s", info.Size(), got, want)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if _, code := run(t, t.TempDir(), "nosuch"); code != 2 {
		t.Errorf("iostudy nosuch exited %d, want 2", code)
	}
	if _, code := run(t, t.TempDir(), "gen"); code != 2 {
		t.Errorf("iostudy gen without -out exited %d, want 2", code)
	}
}

// An interrupted -save run without a checkpoint leaves an archive that
// reads back whole: the sink terminates it on the way out.
func TestInterruptedSaveIsWholeArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "part.dgar")
	grown := func() bool {
		info, err := os.Stat(path)
		return err == nil && info.Size() > 1<<20
	}
	interrupt(t, dir, grown, "-system", "summit", "-scale", "0.01", "-filescale", "0.02",
		"-workers", "1", "-experiment", "table2", "-save", "part.dgar")
	archiveReport(t, path)
}

// An interrupted, checkpointed -save run resumes into the archive an
// uninterrupted run writes: the terminator written on interrupt is cut off
// with the rest of what follows the checkpoint's durable offset.
func TestInterruptedSaveResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign generation in -short mode")
	}
	dir := t.TempDir()
	campaign := []string{"-system", "summit", "-scale", "0.0005", "-filescale", "0.02",
		"-workers", "1", "-experiment", "table2"}
	want, code := run(t, dir, append(campaign, "-save", "full.dgar")...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}
	checkpointed := func() bool {
		_, err := os.Stat(filepath.Join(dir, "run.ckpt"))
		return err == nil
	}
	interrupt(t, dir, checkpointed, append(campaign,
		"-save", "part.dgar", "-checkpoint", "run.ckpt", "-checkpoint-every", "5")...)
	got, code := run(t, dir, "-resume", "run.ckpt", "-save", "part.dgar", "-experiment", "table2")
	if code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	if got != want {
		t.Errorf("resumed report differs from the uninterrupted one:\n%s\nvs\n%s", got, want)
	}
	if archiveReport(t, filepath.Join(dir, "part.dgar")) != archiveReport(t, filepath.Join(dir, "full.dgar")) {
		t.Error("the resumed archive's report differs from the uninterrupted archive's")
	}
}

// -resume takes only a campaign's checkpoint: an ingest pass's is
// ioanalyze's to resume, and a campaign checkpoint in the older per-job
// done-set format is refused by name, with the way out.
func TestResumeRefusesOtherCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ingest := &core.IngestCheckpoint{System: "Summit", Mode: "archive", Source: "x.dgar"}
	if err := checkpoint.Save(filepath.Join(dir, "ingest.ckpt"), ingest); err != nil {
		t.Fatal(err)
	}
	// The field names of the older campaign checkpoint.
	type campaignMeta struct {
		SystemName string
		Config     workload.Config
		Workers    int
	}
	old := struct {
		Meta           campaignMeta
		Done           []bool
		FailedJobs     []int
		Fault          workload.FaultOutcome
		Agg            *analysis.AggregatorState
		ArchiveBytes   int64
		ArchiveEntries int
		Metrics        *obsv.State
	}{
		Meta: campaignMeta{SystemName: "Summit", Config: workload.Config{Seed: 1, JobScale: 0.0002, FileScale: 0.02}},
		Done: []bool{true, false},
		Agg:  analysis.NewAggregator(systems.NewSummit()).State(),
	}
	if err := checkpoint.Save(filepath.Join(dir, "old.ckpt"), &old); err != nil {
		t.Fatal(err)
	}
	for ckpt, want := range map[string]string{
		"ingest.ckpt": "resume it with ioanalyze -resume ingest.ckpt",
		"old.ckpt":    "retired per-job format, which cannot be resumed: restart the run",
	} {
		cmd, _ := command(t, dir, "-resume", ckpt)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if code := exitCode(t, cmd.Run()); code != 2 || !strings.Contains(stderr.String(), want) {
			t.Errorf("iostudy -resume %s: exit %d, stderr %q; want 2 and %q", ckpt, code, stderr.String(), want)
		}
	}
}
