package logfmt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/units"
)

func archiveLogs(n int) []*darshan.Log {
	logs := make([]*darshan.Log, 0, n)
	for i := 0; i < n; i++ {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: uint64(100 + i), NProcs: 2, StartTime: int64(i * 1000), EndTime: int64(i*1000 + 500),
		})
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/f",
			Rank: 0, Kind: darshan.OpWrite, Size: units.MiB, Offset: 0, Start: 1, End: 2})
		logs = append(logs, rt.Finalize())
	}
	return logs
}

func TestArchiveRoundTrip(t *testing.T) {
	logs := archiveLogs(5)
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range logs {
		if err := aw.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if aw.Count() != 5 {
		t.Errorf("count = %d", aw.Count())
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	ar, err := NewArchiveReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		log, err := ar.Next()
		if errors.Is(err, io.EOF) {
			if i != 5 {
				t.Errorf("read %d logs, want 5", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if log.Job.JobID != uint64(100+i) {
			t.Errorf("entry %d: job %d", i, log.Job.JobID)
		}
	}
	// Next after EOF keeps returning EOF.
	if _, err := ar.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF err = %v", err)
	}
}

func TestArchiveFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.dgar")
	logs := archiveLogs(3)
	if err := WriteArchiveFile(path, logs); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ar, err := NewArchiveReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var got []*darshan.Log
	for {
		log, err := ar.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, log)
	}
	if len(got) != 3 {
		t.Fatalf("read %d logs", len(got))
	}
	for i := range got {
		if got[i].Job.JobID != logs[i].Job.JobID {
			t.Errorf("entry %d: job %d vs %d", i, got[i].Job.JobID, logs[i].Job.JobID)
		}
	}
}

func TestArchiveUnterminatedIsTruncated(t *testing.T) {
	var buf bytes.Buffer
	aw, _ := NewArchiveWriter(&buf)
	_ = aw.Append(archiveLogs(1)[0])
	// No Close: missing terminator.
	_ = aw.w.Flush()
	ar, err := NewArchiveReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Next(); err != nil {
		t.Fatalf("first entry should parse: %v", err)
	}
	if _, err := ar.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("unterminated archive err = %v, want ErrTruncated", err)
	}
}

func TestArchiveRejectsWrongMagic(t *testing.T) {
	_, err := NewArchiveReader(bytes.NewReader([]byte("NOPE\x01\x00")))
	if !errors.Is(err, ErrNotArchive) {
		t.Errorf("err = %v, want ErrNotArchive", err)
	}
	// A plain log is not an archive either.
	var buf bytes.Buffer
	if err := Write(&buf, archiveLogs(1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := NewArchiveReader(&buf); !errors.Is(err, ErrNotArchive) {
		t.Errorf("plain log accepted as archive: %v", err)
	}
}

// A version-1 archive, read or reopened for append, is refused by name with
// the way to a readable one.
func TestArchiveRejectsVersion1(t *testing.T) {
	const way = "run `iostudy -save` again"
	v1 := append(ArchiveMagic[:], 1, 0, 0, 0, 0, 0)
	_, err := NewArchiveReader(bytes.NewReader(v1))
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), way) {
		t.Errorf("reading: err = %v, want ErrVersion saying %q", err, way)
	}
	path := filepath.Join(t.TempDir(), "v1.dgar")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	aw, f, err := OpenArchiveAppend(path, archiveHeaderSize, 0)
	if err == nil {
		aw.Close()
		f.Close()
	}
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), way) {
		t.Errorf("appending: err = %v, want ErrVersion saying %q", err, way)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	aw, _ := NewArchiveWriter(&buf)
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := aw.Append(archiveLogs(1)[0]); err == nil {
		t.Error("append after close succeeded")
	}
	// Double close is a no-op.
	if err := aw.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	aw, _ := NewArchiveWriter(&buf)
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	ar, err := NewArchiveReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty archive err = %v, want EOF", err)
	}
}
