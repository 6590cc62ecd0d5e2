package darshan

import (
	"fmt"
	"reflect"
	"testing"

	"iolayers/internal/units"
)

// rec builds a record of module m for path with the given rank and counter
// settings (index, value pairs).
func rec(m ModuleID, path string, rank int32, counters ...int64) *FileRecord {
	r := NewFileRecord(m, HashPath(path), rank)
	for i := 0; i < len(counters); i += 2 {
		r.Counters[counters[i]] = counters[i+1]
	}
	return r
}

// TestGroupRows pins the grouping rules every consumer of a log relies on.
func TestGroupRows(t *testing.T) {
	const a, b, c, lost, lustreOnly = "/gpfs/a", "/gpfs/b", "/gpfs/c", "/gpfs/lost", "/gpfs/l"
	log := &Log{
		Job:   JobHeader{JobID: 5, Metadata: map[string]string{"domain": "Physics"}},
		Names: map[RecordID]string{},
		Records: []*FileRecord{
			// A Lustre record first: it claims lustreOnly's slot but no file row,
			// and must not displace the files that follow.
			rec(ModuleLustre, lustreOnly, 0, LustreStripeWidth, 4),
			// b before a: rows keep first-appearance order.
			rec(ModulePOSIX, b, SharedRank, PosixBytesWritten, 10, PosixSizeWrite0To100, 1),
			rec(ModulePOSIX, a, 0, PosixBytesRead, 1, PosixSizeRead0To100, 2),
			rec(ModulePOSIX, a, 1, PosixBytesRead, 2, PosixSizeRead0To100+3, 5),
			rec(ModuleMPIIO, a, SharedRank, MpiioBytesRead, 3, MpiioCollReads, 7, MpiioIndepOpens, 2),
			rec(ModuleLustre, a, 0, LustreStripeWidth, 16),
			rec(ModuleSTDIO, c, 0, StdioBytesWritten, 9),
			rec(ModuleStdioX, c, 0, StdioXSizeWrite0To100, 3, StdioXRewriteBytes, 40, StdioXUniqueBytes, 50),
			// No name-table entry: no row of any kind.
			rec(ModulePOSIX, lost, 0, PosixBytesRead, 99, PosixSizeRead0To100, 99),
		},
	}
	for _, p := range []string{a, b, c, lustreOnly} {
		log.Names[HashPath(p)] = p
	}
	log.Records[2].FCounters[PosixFReadTime] = 0.5
	log.Records[3].FCounters[PosixFReadTime] = 0.25

	var g Grouper
	for pass := 0; pass < 2; pass++ { // the second pass runs on reused tables
		rows := g.Group(log)
		if rows.Job.JobID != 5 || rows.Domain != "Physics" {
			t.Errorf("header = job %d, domain %q", rows.Job.JobID, rows.Domain)
		}
		if rows.TuneStripe != 16 || rows.TuneColl != 7 || rows.TuneIndep != 2 {
			t.Errorf("tuning = stripe %d, coll %d, indep %d; want 16, 7, 2",
				rows.TuneStripe, rows.TuneColl, rows.TuneIndep)
		}
		wantFiles := []FileRow{
			{Path: b, Posix: ModRow{Present: true, Shared: true, WriteB: 10}},
			{Path: a,
				// Two partial-rank records folded: present, summed, not shared.
				Posix: ModRow{Present: true, ReadB: 3, ReadT: 0.75},
				Mpiio: ModRow{Present: true, Shared: true, ReadB: 3}},
			{Path: c, Stdio: ModRow{Present: true, WriteB: 9}},
		}
		if !reflect.DeepEqual(rows.Files, wantFiles) {
			t.Errorf("files =\n%+v\nwant\n%+v", rows.Files, wantFiles)
		}
		wantPosix := []SizeRow{{Path: b}, {Path: a}}
		wantPosix[0].Bins[units.NumRequestBins] = 1
		wantPosix[1].Bins[0], wantPosix[1].Bins[3] = 2, 5
		if !reflect.DeepEqual(rows.Posix, wantPosix) {
			t.Errorf("posix size rows =\n%+v\nwant\n%+v", rows.Posix, wantPosix)
		}
		wantStdioX := []SizeRow{{Path: c, Rewrite: 40, Unique: 50}}
		wantStdioX[0].Bins[units.NumRequestBins] = 3
		if !reflect.DeepEqual(rows.StdioX, wantStdioX) {
			t.Errorf("stdiox rows =\n%+v\nwant\n%+v", rows.StdioX, wantStdioX)
		}
	}

	// §3.1 precedence: POSIX, else STDIO, else MPI-IO alone.
	for _, tc := range []struct {
		row  FileRow
		want ModuleID
	}{
		{FileRow{Posix: ModRow{Present: true}, Mpiio: ModRow{Present: true}, Stdio: ModRow{Present: true}}, ModulePOSIX},
		{FileRow{Mpiio: ModRow{Present: true}, Stdio: ModRow{Present: true}}, ModuleSTDIO},
		{FileRow{Mpiio: ModRow{Present: true}}, ModuleMPIIO},
	} {
		if _, got := tc.row.Accounted(); got != tc.want {
			t.Errorf("Accounted() = %v, want %v", got, tc.want)
		}
	}
}

// TestGroupDoesNotAllocate: once a Grouper's tables have grown to the
// largest log it has seen, grouping allocates nothing — the half of
// "AddLog is 0 allocs/op" that lives in this package.
func TestGroupDoesNotAllocate(t *testing.T) {
	logs := make([]*Log, 64)
	for i := range logs {
		rt := NewRuntime(JobHeader{JobID: uint64(i), NProcs: 4, StartTime: 0, EndTime: 100,
			Metadata: map[string]string{"domain": "Physics"}})
		rt.EnableExtendedStdio()
		for f := 0; f <= i%7; f++ {
			path := fmt.Sprintf("/gpfs/alpine/p/f%d", f)
			for rank := int32(0); rank < 4; rank++ {
				rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: rank, Kind: OpWrite,
					Size: 4096, Offset: int64(rank) * 4096, Start: 1, End: 2})
			}
			rt.Observe(Op{Module: ModuleMPIIO, Path: path, Rank: SharedRank, Kind: OpWrite,
				Collective: true, Size: 16384, Start: 1, End: 2})
			rt.SetLustreStriping(path, 248, 1, 3, units.MiB, 4)
		}
		rt.Observe(Op{Module: ModuleSTDIO, Path: "/mnt/bb/out.log", Rank: 0, Kind: OpWrite,
			Size: 100, Start: 3, End: 3.1})
		logs[i] = rt.Finalize()
	}
	var g Grouper
	for _, log := range logs {
		g.Group(log)
	}
	i := 0
	if avg := testing.AllocsPerRun(len(logs), func() {
		g.Group(logs[i%len(logs)])
		i++
	}); avg != 0 {
		t.Errorf("Group averages %v allocations per log over %d logs, want 0", avg, len(logs))
	}
}
