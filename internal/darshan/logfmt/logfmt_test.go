package logfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iolayers/internal/darshan"
	"iolayers/internal/units"
)

func sampleLog() *darshan.Log {
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID:     4242,
		UserID:    99,
		NProcs:    4,
		StartTime: 1577836800,
		EndTime:   1577840400,
		Exe:       "/sw/summit/app.x",
		Metadata:  map[string]string{"project": "CSC123", "domain": "Physics"},
	})
	for rank := int32(0); rank < 4; rank++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/alpine/shared.h5",
			Rank: rank, Kind: darshan.OpWrite, Size: 16 * units.MiB, Offset: int64(rank) * 16 << 20,
			Start: 1, End: 2})
	}
	rt.Observe(darshan.Op{Module: darshan.ModuleSTDIO, Path: "/gpfs/alpine/out.log",
		Rank: 0, Kind: darshan.OpWrite, Size: 4096, Offset: 0, Start: 3, End: 3.1})
	rt.Observe(darshan.Op{Module: darshan.ModuleMPIIO, Path: "/gpfs/alpine/shared.h5",
		Rank: darshan.SharedRank, Kind: darshan.OpWrite, Collective: true, Size: 64 * units.MiB,
		Start: 1, End: 2})
	rt.SetLustreStriping("/lustre/f.bin", 248, 1, 3, units.MiB, 4)
	return rt.Finalize()
}

func roundTrip(t *testing.T, log *darshan.Log) *darshan.Log {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func TestRoundTripJobHeader(t *testing.T) {
	log := sampleLog()
	got := roundTrip(t, log)
	if !reflect.DeepEqual(got.Job, log.Job) {
		t.Errorf("job header mismatch:\n got %+v\nwant %+v", got.Job, log.Job)
	}
}

func TestRoundTripNames(t *testing.T) {
	log := sampleLog()
	got := roundTrip(t, log)
	if !reflect.DeepEqual(got.Names, log.Names) {
		t.Errorf("name table mismatch:\n got %v\nwant %v", got.Names, log.Names)
	}
}

func TestRoundTripRecords(t *testing.T) {
	log := sampleLog()
	got := roundTrip(t, log)
	if len(got.Records) != len(log.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(log.Records))
	}
	for i := range log.Records {
		w, g := log.Records[i], got.Records[i]
		if w.Module != g.Module || w.Record != g.Record || w.Rank != g.Rank {
			t.Errorf("record %d identity mismatch: got (%v,%d,%d) want (%v,%d,%d)",
				i, g.Module, g.Record, g.Rank, w.Module, w.Record, w.Rank)
		}
		if !reflect.DeepEqual(w.Counters, g.Counters) {
			t.Errorf("record %d counters mismatch:\n got %v\nwant %v", i, g.Counters, w.Counters)
		}
		if !reflect.DeepEqual(w.FCounters, g.FCounters) {
			t.Errorf("record %d fcounters mismatch:\n got %v\nwant %v", i, g.FCounters, w.FCounters)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.darshan")
	log := sampleLog()
	if err := WriteFile(path, log); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Job.JobID != log.Job.JobID || len(got.Records) != len(log.Records) {
		t.Errorf("file round trip mismatch")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.darshan")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPExxxxxxxxxxxxxxxx")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version uint16
		want    string
	}{
		{"future", 0xFF, "version 255 (supported: 2)"},
		// Version 1 is refused by name, with the way to a readable log.
		{"v1", 1, "regenerate it with `iostudy gen`, or run `iostudy -save` again"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bytes.Clone(buf.Bytes())
			binary.LittleEndian.PutUint16(b[4:], tc.version)
			_, err := Read(bytes.NewReader(b))
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("err = %v, want ErrVersion", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want it to say %q", err, tc.want)
			}
		})
	}
}

func TestTruncatedLog(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{2, 7, 20, len(b) / 2, len(b) - 3} {
		_, err := Read(bytes.NewReader(b[:cut]))
		if err == nil {
			t.Errorf("cut=%d: expected error for truncated log", cut)
		}
	}
}

func TestCorruptPayloadDetectedByCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip one byte in the middle of the first section payload (after the
	// file header and the section header).
	b[fileHeaderSize+sectionHeaderSize+5] ^= 0x40
	_, err := Read(bytes.NewReader(b))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// Fuzz-adjacent robustness property: random corruption of a valid log must
// never panic the reader; it must return either an error or a parsed log.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 300; trial++ {
		b := append([]byte(nil), orig...)
		for flips := 0; flips < 1+rng.IntN(8); flips++ {
			b[rng.IntN(len(b))] ^= byte(1 + rng.IntN(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: reader panicked: %v", trial, r)
				}
			}()
			_, _ = Read(bytes.NewReader(b))
		}()
	}
}

func TestEmptyLog(t *testing.T) {
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 1, NProcs: 1, StartTime: 10, EndTime: 20})
	log := rt.Finalize()
	got := roundTrip(t, log)
	if len(got.Records) != 0 {
		t.Errorf("empty log round-tripped with %d records", len(got.Records))
	}
	if got.Job.JobID != 1 {
		t.Errorf("job id = %d", got.Job.JobID)
	}
}

// Property: for arbitrary counter values (including negative and extreme),
// a single-record log round-trips exactly.
func TestRecordValueRoundTripProperty(t *testing.T) {
	f := func(jobID uint64, rank int32, vals [5]int64, fvals [4]float64) bool {
		rec := darshan.NewFileRecord(darshan.ModulePOSIX, darshan.HashPath("/f"), rank)
		for i, v := range vals {
			rec.Counters[i] = v
		}
		for i, v := range fvals {
			if math.IsNaN(v) {
				v = 0 // NaN never equals itself; runtime never emits NaN
			}
			rec.FCounters[i] = v
		}
		log := &darshan.Log{
			Job:     darshan.JobHeader{JobID: jobID, NProcs: 1},
			Names:   map[darshan.RecordID]string{darshan.HashPath("/f"): "/f"},
			Records: []*darshan.FileRecord{rec},
		}
		var buf bytes.Buffer
		if err := Write(&buf, log); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Job.JobID == jobID &&
			len(got.Records) == 1 &&
			reflect.DeepEqual(got.Records[0].Counters, rec.Counters) &&
			reflect.DeepEqual(got.Records[0].FCounters, rec.FCounters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteNilLog(t *testing.T) {
	if err := Write(&bytes.Buffer{}, nil); err == nil {
		t.Error("expected error for nil log")
	}
}

// The writer cannot produce what the reader refuses: a record whose module
// has no layout, or whose counters are not its module's layout, fails the
// Write and nothing is written.
func TestWriteRefusesForeignLayout(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*darshan.FileRecord)
	}{
		{"unknown module", func(r *darshan.FileRecord) { r.Module = 9 }},
		{"short counters", func(r *darshan.FileRecord) { r.Counters = r.Counters[:3] }},
		{"extra fcounters", func(r *darshan.FileRecord) { r.FCounters = append(r.FCounters, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := sampleLog()
			tc.mutate(log.Records[0])
			var buf bytes.Buffer
			if err := Write(&buf, log); err == nil {
				t.Fatal("Write accepted a record outside its module's layout")
			}
			if buf.Len() != 0 {
				t.Errorf("a failed Write wrote %d bytes", buf.Len())
			}
		})
	}
}

func TestCompressionActuallyShrinks(t *testing.T) {
	// A log with many similar records should compress well below raw size.
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 2, NProcs: 1, StartTime: 0, EndTime: 100})
	for i := 0; i < 500; i++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX,
			Path: filepath.Join("/gpfs/alpine/proj", "f", string(rune('a'+i%26))),
			Rank: 0, Kind: darshan.OpWrite, Size: 4096, Offset: 0, Start: 1, End: 1.1})
	}
	log := rt.Finalize()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	rawGuess := len(log.Records) * (darshan.NumPosixCounters*8 + darshan.NumPosixFCounters*8)
	if buf.Len() >= rawGuess {
		t.Errorf("log size %d not smaller than raw counter size %d", buf.Len(), rawGuess)
	}
}

func TestReadOnDiskGolden(t *testing.T) {
	// Guard the on-disk layout: a byte-for-byte golden file must keep
	// parsing. Regenerate it (testdata/README.md) if the format version
	// changes.
	golden := filepath.Join("testdata", "golden_v2.darshan")
	if _, err := os.Stat(golden); errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(golden, sampleLog()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(golden)
	if err != nil {
		t.Fatalf("golden log unreadable: %v", err)
	}
	if got.Job.JobID != 4242 {
		t.Errorf("golden job id = %d, want 4242", got.Job.JobID)
	}
	if len(got.Records) == 0 {
		t.Error("golden log has no records")
	}
}
