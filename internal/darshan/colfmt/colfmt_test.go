package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/units"
)

// sampleLog builds one varied log: a shared POSIX/MPI-IO file, a private
// STDIO file, and Lustre tuning metadata. The index varies identity and
// volumes so multi-log segments hold distinct rows.
func sampleLog(i int) *darshan.Log {
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID:     uint64(4242 + i),
		UserID:    uint64(99 + i%3),
		NProcs:    4,
		StartTime: 1577836800 + int64(i)*3600,
		EndTime:   1577840400 + int64(i)*3600,
		Exe:       "/sw/summit/app.x",
		Metadata:  map[string]string{"project": "CSC123", "domain": "Physics"},
	})
	for rank := int32(0); rank < 4; rank++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/shared.h5",
			Rank: rank, Kind: darshan.OpWrite, Size: units.ByteSize(i+1) * 16 * units.MiB,
			Offset: int64(rank) * 16 << 20, Start: 1, End: 2})
	}
	rt.Observe(darshan.Op{Module: darshan.ModuleSTDIO, Path: "/gpfs/alpine/out.log",
		Rank: 0, Kind: darshan.OpWrite, Size: 4096, Offset: 0, Start: 3, End: 3.1})
	rt.Observe(darshan.Op{Module: darshan.ModuleMPIIO, Path: "/gpfs/alpine/shared.h5",
		Rank: darshan.SharedRank, Kind: darshan.OpWrite, Collective: true,
		Size: 64 * units.MiB, Start: 1, End: 2})
	rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/in.dat",
		Rank: 1, Kind: darshan.OpRead, Size: 128 * units.KiB, Start: 0.5, End: 0.9})
	rt.SetLustreStriping("/lustre/f.bin", 248, 1, 3, units.MiB, 4)
	return rt.Finalize()
}

// encodeFile writes n sample logs into an in-memory columnar file with the
// given segment size.
func encodeFile(t testing.TB, n, segLogs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, segLogs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(sampleLog(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll walks every segment of data under proj.
func decodeAll(t testing.TB, data []byte, proj Projection) []*Batch {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []*Batch
	for {
		raw, err := r.NextRaw()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("NextRaw: %v", err)
		}
		b, err := DecodeSegment(raw, proj, logfmt.DecodeLimits{})
		if err != nil {
			t.Fatalf("DecodeSegment: %v", err)
		}
		out = append(out, b)
	}
}

func TestRoundTripStructure(t *testing.T) {
	const n, segLogs = 7, 3
	data := encodeFile(t, n, segLogs)
	batches := decodeAll(t, data, ProjectAll)
	if len(batches) != 3 { // 3+3+1
		t.Fatalf("%d segments, want 3", len(batches))
	}
	logs := 0
	for s, b := range batches {
		logs += b.NumLogs
		if len(b.Dict) == 0 || b.Dict[0] != "" {
			t.Fatalf("segment %d: dictionary entry 0 = %q, want empty", s, b.Dict[0])
		}
		// Every log contributes 3 accounting rows (shared.h5, out.log,
		// in.dat) and 2 POSIX histogram paths (out.log is STDIO-only);
		// row ends must land exactly on the table sizes.
		if b.FileRows != 3*b.NumLogs || b.PosixRows != 2*b.NumLogs {
			t.Fatalf("segment %d: %d file rows, %d posix rows for %d logs",
				s, b.FileRows, b.PosixRows, b.NumLogs)
		}
		if got := b.FileEnd[b.NumLogs-1]; got != int64(b.FileRows) {
			t.Fatalf("segment %d: last file end %d, rows %d", s, got, b.FileRows)
		}
		if b.StdioXRows != 0 {
			t.Fatalf("segment %d: %d stdiox rows from a non-extended log", s, b.StdioXRows)
		}
	}
	if logs != n {
		t.Fatalf("decoded %d logs, want %d", logs, n)
	}

	// Spot-check the first log's row values against what the writer was fed.
	b := batches[0]
	if b.JobID[0] != 4242 || b.UserID[0] != 99 || b.NProcs[0] != 4 {
		t.Errorf("log row = job %d user %d nprocs %d", b.JobID[0], b.UserID[0], b.NProcs[0])
	}
	if b.StartTime[0] != 1577836800 {
		t.Errorf("start time %d", b.StartTime[0])
	}
	if dom := b.Dict[b.Domain[0]]; dom != "Physics" {
		t.Errorf("domain %q", dom)
	}
	if b.TuneStripe[0] != 4 {
		t.Errorf("tuning stripe %d, want 4", b.TuneStripe[0])
	}
	// Find the shared.h5 row among the first log's files: all four ranks
	// touch it, so the runtime reduces both the POSIX and MPI-IO views to
	// shared rank −1 records.
	row := -1
	for r := 0; r < int(b.FileEnd[0]); r++ {
		if b.Dict[b.FilePath[r]] == "/gpfs/alpine/shared.h5" {
			row = r
			break
		}
	}
	if row < 0 {
		t.Fatal("no file row for shared.h5 in the first log")
	}
	wantFlags := FlagPosix | FlagPosixShared | FlagMpiio | FlagMpiioShared
	if b.FileFlags[row] != wantFlags {
		t.Errorf("flags %#x, want %#x", b.FileFlags[row], wantFlags)
	}
	if got := b.PosixWriteB[row]; got != 4*16*int64(units.MiB) {
		t.Errorf("posix write bytes %d, want %d", got, 4*16*units.MiB)
	}
	if got := b.MpiioWriteB[row]; got != 64*int64(units.MiB) {
		t.Errorf("mpiio write bytes %d, want %d", got, 64*units.MiB)
	}
	if b.PosixWriteT[row] <= 0 {
		t.Errorf("posix write time %g, want positive", b.PosixWriteT[row])
	}
}

func TestProjectionLeavesGroupsNil(t *testing.T) {
	data := encodeFile(t, 4, 4)

	files := decodeAll(t, data, GroupFiles)[0]
	if files.FileFlags == nil || files.FilePath == nil {
		t.Fatal("GroupFiles projection did not decode the files table")
	}
	if files.JobID != nil || files.FileEnd != nil {
		t.Error("GroupFiles projection decoded the log table")
	}
	if files.PosixReadT != nil || files.PosixWriteT != nil {
		t.Error("GroupFiles projection decoded float time columns")
	}
	if files.Dict == nil {
		t.Error("dictionary must decode under every projection")
	}
	for bin := range files.PosixBins {
		if files.PosixBins[bin] != nil {
			t.Fatal("GroupFiles projection decoded histogram bins")
		}
	}
	// Nil-column accessors read as zero — the contract narrow scans use.
	if At(files.JobID, 0) != 0 || FAt(files.PosixReadT, 0) != 0 {
		t.Error("At/FAt on nil columns must return 0")
	}

	logs := decodeAll(t, data, GroupLogs)[0]
	if logs.JobID == nil || logs.FileEnd == nil {
		t.Fatal("GroupLogs projection did not decode the log table")
	}
	if logs.FileFlags != nil {
		t.Error("GroupLogs projection decoded the files table")
	}
}

func TestStatsPruneAllZeroColumns(t *testing.T) {
	// sampleLog never touches STDIO reads, so colStdioReadB is all zeros in
	// every segment: the stats block must let the decoder skip it.
	data := encodeFile(t, 4, 4)
	b := decodeAll(t, data, ProjectAll)[0]
	if b.StdioReadB != nil {
		t.Error("all-zero stdio read column was decoded, not pruned")
	}
	if b.ColumnsPruned == 0 {
		t.Error("ColumnsPruned = 0 despite all-zero columns")
	}
	if At(b.StdioReadB, 0) != 0 {
		t.Error("pruned column must read as zeros")
	}

	// PeekSegment sees the same stats without decoding anything.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	info, err := PeekSegment(raw, logfmt.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumLogs != b.NumLogs || info.FileRows != b.FileRows {
		t.Fatalf("peek rows (%d, %d) disagree with decode (%d, %d)",
			info.NumLogs, info.FileRows, b.NumLogs, b.FileRows)
	}
	var sawStdioRead bool
	for _, cs := range info.Columns {
		if cs.ID == colStdioReadB {
			sawStdioRead = true
			if cs.Stats.Nonzero != 0 {
				t.Errorf("stdio read stats claim %d nonzero values", cs.Stats.Nonzero)
			}
		}
		if cs.ID == colPosixWriteB && cs.Stats.Max < 4*16*int64(units.MiB) {
			t.Errorf("posix write max %d below the known largest row", cs.Stats.Max)
		}
	}
	if !sawStdioRead {
		t.Fatal("stats block is missing the stdio read column")
	}
	if got := info.MaxFileBytes(); got != 4*64*int64(units.MiB) {
		// Largest byte value in any file column: the 4th log's POSIX write.
		t.Errorf("MaxFileBytes = %d, want %d", got, 4*64*int64(units.MiB))
	}
}

// appendForeignColumn rewrites a segment payload to carry one extra column
// with an ID outside the v1 schema — the shape a future writer would emit.
func appendForeignColumn(t *testing.T, raw []byte) []byte {
	t.Helper()
	nCols := int(binary.LittleEndian.Uint16(raw[16:]))
	hdrLen := segHeaderFixed + nCols*colHeaderSize
	foreign := []byte{0x07} // one varint value
	var h [colHeaderSize]byte
	h[0] = 250 // unknown ID
	h[1] = encVarint
	body := len(raw) - hdrLen
	binary.LittleEndian.PutUint32(h[2:], uint32(body))
	binary.LittleEndian.PutUint32(h[6:], uint32(len(foreign)))
	binary.LittleEndian.PutUint32(h[10:], 1) // count
	binary.LittleEndian.PutUint32(h[14:], 1) // nonzero
	out := make([]byte, 0, len(raw)+colHeaderSize+len(foreign))
	out = append(out, raw[:16]...)
	var nc [2]byte
	binary.LittleEndian.PutUint16(nc[:], uint16(nCols+1))
	out = append(out, nc[:]...)
	out = append(out, raw[18:hdrLen]...)
	out = append(out, h[:]...)
	out = append(out, raw[hdrLen:]...)
	out = append(out, foreign...)
	return out
}

func TestUnknownColumnSkipped(t *testing.T) {
	data := encodeFile(t, 2, 2)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeSegment(raw, ProjectAll, logfmt.DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSegment(appendForeignColumn(t, raw), ProjectAll, logfmt.DecodeLimits{})
	if err != nil {
		t.Fatalf("segment with a future column failed to decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("future column changed the decoded batch")
	}
}

func TestUnknownEncodingRejected(t *testing.T) {
	data := encodeFile(t, 2, 2)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(id byte) []byte {
		out := bytes.Clone(raw)
		nCols := int(binary.LittleEndian.Uint16(out[16:]))
		for i := 0; i < nCols; i++ {
			h := out[segHeaderFixed+i*colHeaderSize:]
			if h[0] == id {
				h[1] = 99 // an encoding this version does not know
				return out
			}
		}
		t.Fatalf("column %d not present", id)
		return nil
	}
	for _, id := range []byte{colJobID, colPosixWriteT} {
		_, err := DecodeSegment(mutate(id), ProjectAll, logfmt.DecodeLimits{})
		if !errors.Is(err, logfmt.ErrVersion) {
			t.Errorf("column %d with unknown encoding: err = %v, want ErrVersion", id, err)
		}
		var de *logfmt.DecodeError
		if !errors.As(err, &de) || de.Kind != logfmt.KindBadVersion {
			t.Errorf("column %d: error not classified bad-version: %v", id, err)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	data := encodeFile(t, 0, 4)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("empty columnar file rejected: %v", err)
	}
	if _, err := r.NextRaw(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty file NextRaw = %v, want io.EOF", err)
	}
	// And it stays EOF.
	if _, err := r.NextRaw(); !errors.Is(err, io.EOF) {
		t.Fatal("reader did not latch EOF")
	}
}

func TestReaderRejectsForeignHeaders(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("DGAR\x01\x00"))); !errors.Is(err, logfmt.ErrBadMagic) {
		t.Errorf("logfmt magic accepted: %v", err)
	}
	bad := []byte(Magic)
	bad = append(bad, 0xFF, 0xFF)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, logfmt.ErrVersion) {
		t.Errorf("future version accepted: %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("DG"))); !errors.Is(err, logfmt.ErrTruncated) {
		t.Errorf("short header error = %v, want ErrTruncated", err)
	}
}

func TestScanFileStopsEarly(t *testing.T) {
	data := encodeFile(t, 6, 2)
	path := writeTemp(t, data)
	stop := errors.New("stop")
	segs := 0
	err := ScanFile(path, GroupFiles, logfmt.DecodeLimits{}, func(seg int, b *Batch) error {
		segs++
		if seg == 1 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("ScanFile returned %v, want the callback's own error", err)
	}
	if segs != 2 {
		t.Fatalf("scanned %d segments after stopping at the second, want 2", segs)
	}
}
