package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"iolayers/internal/checkpoint"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/units"
	"iolayers/internal/workload"
)

// TestMain makes the test binary double as ioanalyze: run re-executes it
// with runMainEnv set, and then it is the command, not the tests — so the
// tests drive the real main() without a `go build`.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "IOANALYZE_TEST_RUN_MAIN"

// run executes `ioanalyze args...` in dir and returns its stdout, stderr and
// exit status.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
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
	err = cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// tracedLog is a small job with DXT enabled and six metadata keys: a
// checkpoint-like writer with five bursts on rank 0 and a reader that seeks
// backwards on rank 1.
func tracedLog() *darshan.Log {
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 7, UserID: 42, NProcs: 2,
		StartTime: 1577836800, EndTime: 1577836900, Exe: "/sw/summit/trace.x",
		Metadata: map[string]string{"domain": "Climate", "project": "CLI115",
			"queue": "batch", "account": "cli", "allocation": "INCITE", "nodes": "1"}})
	rt.EnableDXT(32)
	off := int64(0)
	for i := 0; i < 5; i++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/trace.bin", Rank: 0,
			Kind: darshan.OpWrite, Size: units.MiB, Offset: off,
			Start: float64(i) * 5, End: float64(i)*5 + 0.5})
		off += int64(units.MiB)
	}
	for i, o := range []int64{4096, 0, 8192} {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/input.dat", Rank: 1,
			Kind: darshan.OpRead, Size: 4096, Offset: o,
			Start: 30 + float64(i)*0.1, End: 30.05 + float64(i)*0.1})
	}
	return rt.Finalize()
}

// goldenName is the name logDir gives the on-disk format golden: the name
// testdata/*.golden were captured under, which the outputs print. It decodes
// to the same log in every version of the format.
const goldenName = "golden_v1.darshan"

// logDir holds the on-disk format golden (logfmt's golden_v2.darshan, as
// goldenName) and dxt.darshan (tracedLog), so outputs name them by their
// bare file names.
func logDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "darshan", "logfmt", "testdata", "golden_v2.darshan"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, goldenName), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := logfmt.WriteFile(filepath.Join(dir, "dxt.darshan"), tracedLog()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The per-log subcommands print what darshandump, darshansummary and
// dxtview printed, byte for byte (testdata/*.golden were captured from
// those binaries; the dump golden has its metadata lines sorted).
func TestPerLogGoldens(t *testing.T) {
	dir := logDir(t)
	for _, sub := range []string{"dump", "summary", "dxt"} {
		want, err := os.ReadFile(filepath.Join("testdata", sub+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, code := run(t, dir, sub, goldenName, "dxt.darshan")
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", sub, code, stderr)
		}
		if got != string(want) {
			t.Errorf("ioanalyze %s output differs from testdata/%s.golden:\n%s", sub, sub, got)
		}
	}
}

// A dump is deterministic: metadata keys print sorted, not in map order.
func TestDumpMetadataSorted(t *testing.T) {
	log := tracedLog()
	if len(log.Job.Metadata) < 5 {
		t.Fatalf("tracedLog has %d metadata keys, want at least 5", len(log.Job.Metadata))
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		dump(&buf, "dxt.darshan", log)
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("dump %d differs from dump 0:\n%s\nvs\n%s", i, buf.String(), first)
		}
	}
	var keys []string
	for _, line := range strings.Split(first, "\n") {
		if k, ok := strings.CutPrefix(line, "# meta "); ok {
			keys = append(keys, k)
		}
	}
	if len(keys) != len(log.Job.Metadata) || !sort.StringsAreSorted(keys) {
		t.Errorf("metadata lines not all present and sorted: %q", keys)
	}
}

// One exit-status rule for the per-log subcommands: 2 for usage errors, 1
// when a log is unreadable (the readable ones are still shown).
func TestPerLogExitStatus(t *testing.T) {
	dir := logDir(t)
	for _, tc := range []struct {
		args  []string
		code  int
		shows string // a readable log's output that must still appear
	}{
		{[]string{"nosuch", goldenName}, 2, ""},
		{[]string{"dump"}, 2, ""},
		{[]string{"summary", "-top"}, 2, ""},
		{[]string{"dxt", "-nosuchflag", "dxt.darshan"}, 2, ""},
		{[]string{"dump", "missing.darshan"}, 1, ""},
		{[]string{"summary", "missing.darshan", goldenName}, 1, "=== " + goldenName + " ==="},
		{[]string{"dxt", "dxt.darshan"}, 0, "DXT analysis: 2 traces"},
	} {
		stdout, stderr, code := run(t, dir, tc.args...)
		if code != tc.code {
			t.Errorf("ioanalyze %s: exit %d, want %d (stderr %q)", strings.Join(tc.args, " "), code, tc.code, stderr)
		}
		if !strings.Contains(stdout, tc.shows) {
			t.Errorf("ioanalyze %s: stdout lacks %q", strings.Join(tc.args, " "), tc.shows)
		}
	}
}

// -resume takes only an ingest pass's checkpoint: a campaign's is iostudy's
// to resume.
func TestResumeRefusesCampaignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := &core.IngestCheckpoint{System: "Summit", Mode: "campaign",
		Config: workload.Config{Seed: 1, JobScale: 0.0002, FileScale: 0.02}}
	if err := checkpoint.Save(filepath.Join(dir, "run.ckpt"), ck); err != nil {
		t.Fatal(err)
	}
	const want = "resume it with iostudy -resume run.ckpt"
	if _, stderr, code := run(t, dir, "-resume", "run.ckpt"); code != 2 || !strings.Contains(stderr, want) {
		t.Errorf("ioanalyze -resume run.ckpt: exit %d, stderr %q; want 2 and %q", code, stderr, want)
	}
}
