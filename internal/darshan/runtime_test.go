package darshan

import (
	"fmt"
	"sync"
	"testing"

	"iolayers/internal/units"
)

func testJob(nprocs int) JobHeader {
	return JobHeader{
		JobID:     101,
		UserID:    7,
		NProcs:    nprocs,
		StartTime: 1000,
		EndTime:   1600,
		Exe:       "/sw/app/sim.x",
		Metadata:  map[string]string{"project": "PHY123"},
	}
}

func TestModuleNames(t *testing.T) {
	want := map[ModuleID]string{
		ModulePOSIX:  "POSIX",
		ModuleMPIIO:  "MPI-IO",
		ModuleSTDIO:  "STDIO",
		ModuleLustre: "LUSTRE",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), name)
		}
	}
	if ModuleID(99).String() != "MODULE(99)" {
		t.Errorf("unknown module string = %q", ModuleID(99).String())
	}
}

func TestCounterTableWidths(t *testing.T) {
	cases := []struct {
		m         ModuleID
		counters  int
		fcounters int
	}{
		{ModulePOSIX, NumPosixCounters, NumPosixFCounters},
		{ModuleMPIIO, NumMpiioCounters, NumMpiioFCounters},
		{ModuleSTDIO, NumStdioCounters, NumStdioFCounters},
		{ModuleLustre, NumLustreCounters, 0},
	}
	for _, c := range cases {
		if got := NumCounters(c.m); got != c.counters {
			t.Errorf("%v NumCounters = %d, want %d", c.m, got, c.counters)
		}
		if got := NumFCounters(c.m); got != c.fcounters {
			t.Errorf("%v NumFCounters = %d, want %d", c.m, got, c.fcounters)
		}
	}
}

func TestCounterNamesUniqueAndComplete(t *testing.T) {
	for _, m := range Modules() {
		names := CounterNames(m)
		seen := map[string]bool{}
		for i, n := range names {
			if n == "" {
				t.Errorf("%v counter %d has empty name", m, i)
			}
			if seen[n] {
				t.Errorf("%v counter name %q duplicated", m, n)
			}
			seen[n] = true
		}
		for i, n := range FCounterNames(m) {
			if n == "" {
				t.Errorf("%v fcounter %d has empty name", m, i)
			}
		}
	}
}

func TestPosixSizeBinCounterNames(t *testing.T) {
	names := CounterNames(ModulePOSIX)
	if names[PosixSizeRead0To100] != "POSIX_SIZE_READ_0_100" {
		t.Errorf("first read bin = %q", names[PosixSizeRead0To100])
	}
	if names[PosixSizeRead0To100+9] != "POSIX_SIZE_READ_1G_PLUS" {
		t.Errorf("last read bin = %q", names[PosixSizeRead0To100+9])
	}
	if names[PosixSizeWrite0To100] != "POSIX_SIZE_WRITE_0_100" {
		t.Errorf("first write bin = %q", names[PosixSizeWrite0To100])
	}
	if names[PosixSizeWrite0To100+9] != "POSIX_SIZE_WRITE_1G_PLUS" {
		t.Errorf("last write bin = %q", names[PosixSizeWrite0To100+9])
	}
}

func TestHashPathStable(t *testing.T) {
	a := HashPath("/gpfs/alpine/proj/file.dat")
	b := HashPath("/gpfs/alpine/proj/file.dat")
	c := HashPath("/gpfs/alpine/proj/file2.dat")
	if a != b {
		t.Error("same path hashed differently")
	}
	if a == c {
		t.Error("different paths collided (expected for FNV on near-identical strings only with astronomically low probability)")
	}
}

func TestJobHeaderRuntimeAndNodeSeconds(t *testing.T) {
	j := testJob(84)
	if j.Runtime() != 600 {
		t.Errorf("Runtime = %v, want 600", j.Runtime())
	}
	// 84 procs at 42 procs/node = 2 nodes, 600 s each.
	if got := j.NodeSeconds(42); got != 2*600.0 {
		t.Errorf("NodeSeconds = %v", got)
	}
	j.EndTime = j.StartTime - 5
	if j.Runtime() != 0 {
		t.Errorf("negative runtime not clamped: %v", j.Runtime())
	}
}

func TestNodeSecondsPanicsOnBadDensity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	testJob(4).NodeSeconds(0)
}

func TestObservePosixReadWrite(t *testing.T) {
	rt := NewRuntime(testJob(1))
	path := "/gpfs/alpine/d/x.h5"
	rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: 0, Kind: OpOpen, Start: 1, End: 1.01})
	rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: 0, Kind: OpRead, Size: 64 * units.KiB, Offset: 0, Start: 1.1, End: 1.2})
	rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: 0, Kind: OpRead, Size: 64 * units.KiB, Offset: 64 * 1024, Start: 1.2, End: 1.3})
	rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: 0, Kind: OpWrite, Size: 2 * units.MiB, Offset: 0, Start: 2, End: 2.5})
	rt.Observe(Op{Module: ModulePOSIX, Path: path, Rank: 0, Kind: OpClose, Start: 3, End: 3.001})
	log := rt.Finalize()

	recs := log.RecordsFor(ModulePOSIX)
	if len(recs) != 1 {
		t.Fatalf("got %d POSIX records, want 1", len(recs))
	}
	r := recs[0]
	if r.Counters[PosixOpens] != 1 || r.Counters[PosixReads] != 2 || r.Counters[PosixWrites] != 1 {
		t.Errorf("op counts: opens=%d reads=%d writes=%d",
			r.Counters[PosixOpens], r.Counters[PosixReads], r.Counters[PosixWrites])
	}
	if r.Counters[PosixBytesRead] != 128*1024 {
		t.Errorf("BytesRead = %d", r.Counters[PosixBytesRead])
	}
	if r.Counters[PosixBytesWritten] != 2*1024*1024 {
		t.Errorf("BytesWritten = %d", r.Counters[PosixBytesWritten])
	}
	if r.Counters[PosixSizeRead0To100+int(units.Bin10KTo100K)] != 2 {
		t.Errorf("read histogram bin 10K_100K = %d, want 2",
			r.Counters[PosixSizeRead0To100+int(units.Bin10KTo100K)])
	}
	if r.Counters[PosixSizeWrite0To100+int(units.Bin1MTo4M)] != 1 {
		t.Errorf("write histogram bin 1M_4M = %d, want 1",
			r.Counters[PosixSizeWrite0To100+int(units.Bin1MTo4M)])
	}
	// Second read is both sequential and consecutive.
	if r.Counters[PosixConsecReads] != 1 || r.Counters[PosixSeqReads] != 1 {
		t.Errorf("consec=%d seq=%d, want 1/1",
			r.Counters[PosixConsecReads], r.Counters[PosixSeqReads])
	}
	if got := r.FCounters[PosixFReadTime]; !close(got, 0.2) {
		t.Errorf("FReadTime = %v, want 0.2", got)
	}
	if got := r.FCounters[PosixFWriteTime]; !close(got, 0.5) {
		t.Errorf("FWriteTime = %v, want 0.5", got)
	}
	if r.Counters[PosixMaxByteRead] != 128*1024-1 {
		t.Errorf("MaxByteRead = %d", r.Counters[PosixMaxByteRead])
	}
	if log.PathOf(r.Record) != path {
		t.Errorf("PathOf = %q", log.PathOf(r.Record))
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestObserveStdioHasNoSizeHistogram(t *testing.T) {
	rt := NewRuntime(testJob(1))
	rt.Observe(Op{Module: ModuleSTDIO, Path: "/p/log.txt", Rank: 0, Kind: OpWrite, Size: 100, Offset: 0, Start: 0.5, End: 0.6})
	rt.Observe(Op{Module: ModuleSTDIO, Path: "/p/log.txt", Rank: 0, Kind: OpFlush, Start: 0.6, End: 0.61})
	log := rt.Finalize()
	recs := log.RecordsFor(ModuleSTDIO)
	if len(recs) != 1 {
		t.Fatalf("got %d STDIO records", len(recs))
	}
	r := recs[0]
	if len(r.Counters) != NumStdioCounters {
		t.Errorf("STDIO record width %d, want %d", len(r.Counters), NumStdioCounters)
	}
	if r.Counters[StdioWrites] != 1 || r.Counters[StdioBytesWritten] != 100 || r.Counters[StdioFlushes] != 1 {
		t.Errorf("stdio counters: %v", r.Counters)
	}
	for _, n := range CounterNames(ModuleSTDIO) {
		if len(n) >= 10 && n[:10] == "STDIO_SIZE" {
			t.Errorf("STDIO module unexpectedly has size-histogram counter %q", n)
		}
	}
}

func TestObserveMpiioCollectiveVsIndependent(t *testing.T) {
	rt := NewRuntime(testJob(2))
	p := "/lustre/cs/f.nc"
	rt.Observe(Op{Module: ModuleMPIIO, Path: p, Rank: 0, Kind: OpOpen, Collective: true, Start: 0, End: 0.01})
	rt.Observe(Op{Module: ModuleMPIIO, Path: p, Rank: 0, Kind: OpWrite, Collective: true, Size: units.MiB, Start: 0.1, End: 0.3})
	rt.Observe(Op{Module: ModuleMPIIO, Path: p, Rank: 0, Kind: OpRead, Size: units.KiB, Start: 0.4, End: 0.41})
	log := rt.Finalize()
	r := log.RecordsFor(ModuleMPIIO)[0]
	if r.Counters[MpiioCollOpens] != 1 || r.Counters[MpiioIndepOpens] != 0 {
		t.Errorf("coll/indep opens = %d/%d", r.Counters[MpiioCollOpens], r.Counters[MpiioIndepOpens])
	}
	if r.Counters[MpiioCollWrites] != 1 || r.Counters[MpiioIndepReads] != 1 {
		t.Errorf("coll writes=%d indep reads=%d", r.Counters[MpiioCollWrites], r.Counters[MpiioIndepReads])
	}
}

func TestSharedFileReduction(t *testing.T) {
	nprocs := 4
	rt := NewRuntime(testJob(nprocs))
	p := "/gpfs/alpine/shared.chk"
	for rank := int32(0); rank < int32(nprocs); rank++ {
		rt.Observe(Op{Module: ModulePOSIX, Path: p, Rank: rank, Kind: OpOpen, Start: 0.1, End: 0.11})
		rt.Observe(Op{Module: ModulePOSIX, Path: p, Rank: rank, Kind: OpWrite,
			Size: units.MiB, Offset: int64(rank) * 1024 * 1024, Start: 1, End: 1.5})
	}
	log := rt.Finalize()
	recs := log.RecordsFor(ModulePOSIX)
	if len(recs) != 1 {
		t.Fatalf("got %d records after reduction, want 1", len(recs))
	}
	r := recs[0]
	if r.Rank != SharedRank {
		t.Errorf("reduced rank = %d, want %d", r.Rank, SharedRank)
	}
	if r.Counters[PosixWrites] != 4 || r.Counters[PosixBytesWritten] != 4*1024*1024 {
		t.Errorf("reduced writes=%d bytes=%d", r.Counters[PosixWrites], r.Counters[PosixBytesWritten])
	}
	// Summed write time across ranks.
	if !close(r.FCounters[PosixFWriteTime], 4*0.5) {
		t.Errorf("reduced FWriteTime = %v, want 2.0", r.FCounters[PosixFWriteTime])
	}
	// Slowest rank spent 0.5s writing + 0.01s meta.
	if !close(r.FCounters[PosixFSlowestRankTime], 0.51) {
		t.Errorf("SlowestRankTime = %v, want 0.51", r.FCounters[PosixFSlowestRankTime])
	}
	if r.Counters[PosixMaxByteWritten] != 4*1024*1024-1 {
		t.Errorf("reduced MaxByteWritten = %d", r.Counters[PosixMaxByteWritten])
	}
}

func TestPartialRankSetNotReduced(t *testing.T) {
	rt := NewRuntime(testJob(4))
	p := "/gpfs/alpine/partial.dat"
	for _, rank := range []int32{0, 2} {
		rt.Observe(Op{Module: ModulePOSIX, Path: p, Rank: rank, Kind: OpRead,
			Size: units.KiB, Offset: 0, Start: 1, End: 1.1})
	}
	log := rt.Finalize()
	recs := log.RecordsFor(ModulePOSIX)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (no reduction for partial rank sets)", len(recs))
	}
	for _, r := range recs {
		if r.Rank == SharedRank {
			t.Error("partial rank set was reduced to SharedRank")
		}
	}
}

func TestPreReducedSharedRankPassesThrough(t *testing.T) {
	rt := NewRuntime(testJob(8))
	rt.Observe(Op{Module: ModulePOSIX, Path: "/p/f", Rank: SharedRank, Kind: OpWrite,
		Size: units.GiB, Offset: 0, Start: 0, End: 10})
	log := rt.Finalize()
	recs := log.RecordsFor(ModulePOSIX)
	if len(recs) != 1 || recs[0].Rank != SharedRank {
		t.Fatalf("pre-reduced record mangled: %+v", recs)
	}
	if recs[0].Counters[PosixBytesWritten] != int64(units.GiB) {
		t.Errorf("bytes = %d", recs[0].Counters[PosixBytesWritten])
	}
}

func TestLustreStripingRecord(t *testing.T) {
	rt := NewRuntime(testJob(1))
	rt.SetLustreStriping("/lustre/cs/f", 248, 1, 17, units.MiB, 8)
	log := rt.Finalize()
	recs := log.RecordsFor(ModuleLustre)
	if len(recs) != 1 {
		t.Fatalf("got %d lustre records", len(recs))
	}
	r := recs[0]
	if r.Counters[LustreOSTs] != 248 || r.Counters[LustreStripeWidth] != 8 ||
		r.Counters[LustreStripeSize] != int64(units.MiB) || r.Counters[LustreStripeOffset] != 17 {
		t.Errorf("lustre counters: %v", r.Counters)
	}
}

func TestFinalizeDeterministicOrder(t *testing.T) {
	build := func() *Log {
		rt := NewRuntime(testJob(1))
		for i := 0; i < 50; i++ {
			p := fmt.Sprintf("/p/file%02d", i)
			rt.Observe(Op{Module: ModulePOSIX, Path: p, Rank: 0, Kind: OpWrite,
				Size: 100, Offset: 0, Start: 1, End: 1.1})
			rt.Observe(Op{Module: ModuleSTDIO, Path: p + ".log", Rank: 0, Kind: OpWrite,
				Size: 10, Offset: 0, Start: 1, End: 1.1})
		}
		return rt.Finalize()
	}
	a, b := build(), build()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Module != b.Records[i].Module || a.Records[i].Record != b.Records[i].Record {
			t.Fatalf("record order differs at %d", i)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	nprocs := 8
	rt := NewRuntime(testJob(nprocs))
	var wg sync.WaitGroup
	for rank := 0; rank < nprocs; rank++ {
		wg.Add(1)
		go func(rank int32) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rt.Observe(Op{Module: ModulePOSIX, Path: "/shared/file", Rank: rank,
					Kind: OpWrite, Size: 4096, Offset: int64(i) * 4096, Start: float64(i), End: float64(i) + 0.5})
			}
		}(int32(rank))
	}
	wg.Wait()
	log := rt.Finalize()
	recs := log.RecordsFor(ModulePOSIX)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 reduced", len(recs))
	}
	if recs[0].Counters[PosixWrites] != int64(nprocs*100) {
		t.Errorf("writes = %d, want %d", recs[0].Counters[PosixWrites], nprocs*100)
	}
}

func TestRuntimePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero procs", func() { NewRuntime(JobHeader{NProcs: 0}) })
	mustPanic("observe after finalize", func() {
		rt := NewRuntime(testJob(1))
		rt.Finalize()
		rt.Observe(Op{Module: ModulePOSIX, Path: "/p", Kind: OpOpen})
	})
	mustPanic("double finalize", func() {
		rt := NewRuntime(testJob(1))
		rt.Finalize()
		rt.Finalize()
	})
	mustPanic("end before start", func() {
		rt := NewRuntime(testJob(1))
		rt.Observe(Op{Module: ModulePOSIX, Path: "/p", Kind: OpRead, Start: 2, End: 1})
	})
	mustPanic("lustre module via Observe", func() {
		rt := NewRuntime(testJob(1))
		rt.Observe(Op{Module: ModuleLustre, Path: "/p", Kind: OpRead, Start: 0, End: 1})
	})
}

func TestOpKindString(t *testing.T) {
	kinds := map[OpKind]string{
		OpOpen: "open", OpRead: "read", OpWrite: "write", OpSeek: "seek",
		OpStat: "stat", OpFlush: "flush", OpFsync: "fsync", OpClose: "close",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if OpKind(42).String() != "OpKind(42)" {
		t.Errorf("unknown kind = %q", OpKind(42).String())
	}
}

func TestFileRecordClone(t *testing.T) {
	r := NewFileRecord(ModulePOSIX, 9, 0)
	r.Counters[PosixReads] = 5
	c := r.Clone()
	c.Counters[PosixReads] = 10
	if r.Counters[PosixReads] != 5 {
		t.Error("Clone shares counter storage")
	}
}
