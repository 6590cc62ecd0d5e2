package analysis_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sort"
	"testing"

	"iolayers/internal/analysis"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/units"
	"iolayers/internal/workload"
)

// rendered is the aggregate's full JSON report — the bytes every
// row-vs-columnar and resume contract is stated in.
func rendered(t testing.TB, a *analysis.Aggregator) string {
	t.Helper()
	s, err := report.RenderString(a.Report(), report.Options{Format: report.FormatJSON})
	if err != nil {
		t.Fatalf("rendering: %v", err)
	}
	return s
}

// posixLog is a one-rank log writing 100 bytes to each path through POSIX,
// its records in the order the paths are given.
func posixLog(jobID uint64, paths ...string) *darshan.Log {
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: jobID, UserID: 7, NProcs: 1,
		StartTime: 1577836800, EndTime: 1577840400, Metadata: map[string]string{"domain": "Physics"}})
	for _, p := range paths {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: p, Rank: 0,
			Kind: darshan.OpWrite, Size: 100, Start: 1, End: 2})
	}
	log := rt.Finalize()
	at := map[darshan.RecordID]int{}
	for i, p := range paths {
		at[darshan.HashPath(p)] = i
	}
	sort.SliceStable(log.Records, func(i, j int) bool {
		return at[log.Records[i].Record] < at[log.Records[j].Record]
	})
	return log
}

// foreignPath is on neither of Summit's mounts, so routing it panics.
const foreignPath = "/dev/shm/x"

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestRejectedLogContributesNothing: a log whose second file is on a
// foreign path is rejected by AddLog's routing panic, and the aggregator is
// exactly as it was — not one log, one file and 100 bytes ahead.
func TestRejectedLogContributesNothing(t *testing.T) {
	sys := systems.NewSummit()
	a := analysis.NewAggregator(sys)
	if !panics(func() { a.AddLog(posixLog(1, "/gpfs/alpine/p/ok.dat", foreignPath)) }) {
		t.Fatal("AddLog accepted a path outside the system's mounts")
	}
	if a.Logs() != 0 || a.TotalBytes() != 0 {
		t.Errorf("rejected log left Logs() = %d, TotalBytes() = %v", a.Logs(), a.TotalBytes())
	}
	if got, want := rendered(t, a), rendered(t, analysis.NewAggregator(sys)); got != want {
		t.Error("rejected log changed the report")
	}
}

// TestRejectedSegmentContributesNothing is the same rule through FoldBatch:
// a foreign path in the middle log of a segment rejects the segment before
// the first log is folded.
func TestRejectedSegmentContributesNothing(t *testing.T) {
	var buf bytes.Buffer
	w, err := colfmt.NewWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*darshan.Log{
		posixLog(1, "/gpfs/alpine/p/a.dat"),
		posixLog(2, "/gpfs/alpine/p/b.dat", foreignPath),
		posixLog(3, "/gpfs/alpine/p/c.dat"),
	} {
		if err := w.Append(log); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	batches := decodeAll(t, buf.Bytes())
	if len(batches) != 1 || batches[0].NumLogs != 3 {
		t.Fatalf("want one 3-log segment, got %d batches", len(batches))
	}

	sys := systems.NewSummit()
	a := analysis.NewAggregator(sys)
	if !panics(func() { _ = a.FoldBatch(batches[0]) }) {
		t.Fatal("FoldBatch accepted a path outside the system's mounts")
	}
	if a.Logs() != 0 || a.TotalBytes() != 0 {
		t.Errorf("rejected segment left Logs() = %d, TotalBytes() = %v", a.Logs(), a.TotalBytes())
	}
	if got, want := rendered(t, a), rendered(t, analysis.NewAggregator(sys)); got != want {
		t.Error("rejected segment changed the report")
	}
}

// decodeAll decodes every segment of a columnar file under ProjectAll.
func decodeAll(t testing.TB, data []byte) []*colfmt.Batch {
	t.Helper()
	r, err := colfmt.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []*colfmt.Batch
	for {
		raw, err := r.NextRaw()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := colfmt.DecodeSegment(raw, colfmt.ProjectAll, logfmt.DecodeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

// TestAddLogDoesNotAllocate enforces the ROADMAP constraint behind
// BenchmarkAnalyzeLog: once the aggregator has seen a campaign's users,
// jobs and domains and its scratch has grown, folding a log allocates
// nothing.
func TestAddLogDoesNotAllocate(t *testing.T) {
	sys := systems.NewSummit()
	gen, err := workload.NewGenerator(workload.Summit(), sys,
		workload.Config{Seed: 3, JobScale: 0.001, FileScale: 0.05, ExtendedStdio: true})
	if err != nil {
		t.Fatal(err)
	}
	var logs []*darshan.Log
	for i := 0; len(logs) < 64; i++ {
		logs = append(logs, gen.GenerateJob(i%gen.Jobs())...)
	}
	a := analysis.NewAggregator(sys)
	// Warm twice: shared-file bandwidth samples append to slices that double,
	// so the second pass leaves them with room for the measured one.
	for pass := 0; pass < 2; pass++ {
		for _, log := range logs {
			a.AddLog(log)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(len(logs), func() {
		a.AddLog(logs[i%len(logs)])
		i++
	}); avg != 0 {
		t.Errorf("AddLog averages %v allocations per log over %d logs, want 0", avg, len(logs))
	}
}

// FuzzRowVsColumnar is the row-vs-columnar identity as a differential fuzz
// target: any log the row decoder accepts is folded once directly and once
// through a .dgc round trip, and the two aggregators must agree — both
// reject it and stay empty, or both accept it and render the same bytes.
func FuzzRowVsColumnar(f *testing.F) {
	golden, err := os.ReadFile("../darshan/logfmt/testdata/golden_v2.darshan")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	multi := darshan.NewRuntime(darshan.JobHeader{JobID: 2, UserID: 9, NProcs: 4,
		StartTime: 1590000000, EndTime: 1590003600, Metadata: map[string]string{"domain": "Chemistry"}})
	for rank := int32(0); rank < 4; rank++ {
		multi.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/c/part.h5", Rank: rank,
			Kind: darshan.OpWrite, Size: 8 * units.MiB, Offset: int64(rank) * 8 << 20, Start: 1, End: 2})
	}
	multi.Observe(darshan.Op{Module: darshan.ModuleMPIIO, Path: "/gpfs/alpine/c/part.h5", Rank: darshan.SharedRank,
		Kind: darshan.OpWrite, Collective: true, Size: 32 * units.MiB, Start: 1, End: 2})
	multi.SetLustreStriping("/gpfs/alpine/c/part.h5", 248, 1, 3, units.MiB, 8)

	stdiox := darshan.NewRuntime(darshan.JobHeader{JobID: 3, UserID: 9, NProcs: 1, StartTime: 0, EndTime: 100})
	stdiox.EnableExtendedStdio()
	for _, off := range []int64{0, 0, 4096} {
		stdiox.Observe(darshan.Op{Module: darshan.ModuleSTDIO, Path: "/mnt/bb/u/out.rst", Rank: 0,
			Kind: darshan.OpWrite, Size: 4096, Offset: off, Start: 0, End: 0.1})
	}

	for _, log := range []*darshan.Log{multi.Finalize(), stdiox.Finalize(),
		posixLog(4, "/gpfs/alpine/p/ok.dat", foreignPath)} {
		var buf bytes.Buffer
		if err := logfmt.Write(&buf, log); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	sys := systems.NewSummit()
	lim := logfmt.DecodeLimits{MaxSectionBytes: 1 << 20, MaxCompressedBytes: 1 << 20,
		MaxRecords: 1 << 12, MaxNames: 1 << 12, MaxDXTTraces: 1 << 10, MaxDXTSegments: 1 << 10,
		MaxStringLen: 1 << 12, MaxMetadataPairs: 1 << 8}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := logfmt.ReadWithLimits(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		row := analysis.NewAggregator(sys)
		rowRejected := panics(func() { row.AddLog(log) })

		var buf bytes.Buffer
		w, err := colfmt.NewWriter(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(log); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		col := analysis.NewAggregator(sys)
		colRejected := false
		for _, b := range decodeAll(t, buf.Bytes()) {
			if panics(func() { err = col.FoldBatch(b) }) {
				colRejected = true
			} else if err != nil {
				t.Fatalf("FoldBatch refused the writer's own segment: %v", err)
			}
		}

		if rowRejected != colRejected {
			t.Fatalf("AddLog rejected = %v, FoldBatch rejected = %v", rowRejected, colRejected)
		}
		if rowRejected {
			if row.Logs() != 0 || col.Logs() != 0 {
				t.Fatalf("rejected log left Logs() = %d (row), %d (columnar)", row.Logs(), col.Logs())
			}
			return
		}
		if rendered(t, row) != rendered(t, col) {
			t.Fatal("row and columnar folds of one log render different reports")
		}
	})
}
