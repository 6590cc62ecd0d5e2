package logfmt

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/units"
)

func dxtLog() *darshan.Log {
	rt := darshan.NewRuntime(darshan.JobHeader{
		JobID: 99, UserID: 1, NProcs: 2, StartTime: 0, EndTime: 100,
	})
	rt.EnableDXT(8)
	rt.EnableExtendedStdio()
	rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/p/a.bin", Rank: 0,
		Kind: darshan.OpRead, Size: 64 * units.KiB, Offset: 1 << 20, Start: 1, End: 1.25})
	rt.ObserveN(darshan.Op{Module: darshan.ModuleMPIIO, Path: "/p/b.nc", Rank: 1,
		Kind: darshan.OpWrite, Size: units.MiB, Offset: 0, Start: 2, End: 3}, 4)
	rt.Observe(darshan.Op{Module: darshan.ModuleSTDIO, Path: "/p/c.log", Rank: 0,
		Kind: darshan.OpWrite, Size: 200, Offset: 0, Start: 4, End: 4.1})
	return rt.Finalize()
}

func TestDXTRoundTrip(t *testing.T) {
	log := dxtLog()
	if len(log.DXT) != 2 {
		t.Fatalf("precondition: %d traces", len(log.DXT))
	}
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DXT, log.DXT) {
		t.Errorf("DXT mismatch:\n got %+v\nwant %+v", got.DXT, log.DXT)
	}
}

func TestStdioXRecordsRoundTrip(t *testing.T) {
	log := dxtLog()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := log.RecordsFor(darshan.ModuleStdioX)
	have := got.RecordsFor(darshan.ModuleStdioX)
	if len(want) != 1 || len(have) != 1 {
		t.Fatalf("STDIOX records: wrote %d, read %d", len(want), len(have))
	}
	if !reflect.DeepEqual(want[0].Counters, have[0].Counters) {
		t.Errorf("counters mismatch: %v vs %v", have[0].Counters, want[0].Counters)
	}
}

func TestLogWithoutDXTHasNoDXTSection(t *testing.T) {
	var withBuf, withoutBuf bytes.Buffer
	if err := Write(&withBuf, dxtLog()); err != nil {
		t.Fatal(err)
	}
	plain := sampleLog()
	if err := Write(&withoutBuf, plain); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&withoutBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.DXT) != 0 {
		t.Errorf("plain log decoded with %d DXT traces", len(got.DXT))
	}
}

// Forward compatibility: a section of a type this version does not know,
// whose checksum holds, is skipped with the rest of the log intact. A known
// section whose type byte is damaged is not such a section: it is corrupt.
func TestUnknownSectionTypeSkipped(t *testing.T) {
	log := dxtLog()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatal(err)
	}
	secs := splitLog(t, buf.Bytes())
	last := secs[len(secs)-1]
	if last.typ != sectionDXT {
		t.Fatalf("expected trailing DXT section, found type %d", last.typ)
	}
	// A section from a later version, placed before the DXT section so the
	// reader has to carry on past it.
	future := rawSection{typ: 200}.withPayload([]byte("a section from a later version"))
	secs = append(secs[:len(secs)-1], future, last)
	got, err := Read(bytes.NewReader(joinLog(secs)))
	if err != nil {
		t.Fatalf("reader failed on unknown section: %v", err)
	}
	want := roundTrip(t, log)
	if !reflect.DeepEqual(got, want) {
		t.Error("known sections changed when skipping an unknown one")
	}

	flipped := bytes.Clone(buf.Bytes())
	flipped[last.start] = 200
	_, err = Read(bytes.NewReader(flipped))
	var de *DecodeError
	if !errors.As(err, &de) || de.Kind != KindCorrupt || de.Offset != int64(last.start) {
		t.Fatalf("flipped type byte: err = %v, want corrupt at %d", err, last.start)
	}
}

// A module section whose checksum holds but whose module this build has no
// layout for is refused as a version mismatch naming the module, not read
// with a layout guessed from its bytes.
func TestUnknownModuleIsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, dxtLog()); err != nil {
		t.Fatal(err)
	}
	secs := splitLog(t, buf.Bytes())
	for k := range secs {
		if secs[k].typ == sectionModule {
			secs[k].module = 9
			break
		}
	}
	_, err := Read(bytes.NewReader(joinLog(secs)))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "module MODULE(9)") {
		t.Errorf("err = %v, want it to name MODULE(9)", err)
	}
}

func TestCorruptDXTSegmentCountRejected(t *testing.T) {
	// A DXT payload claiming more segments than bytes must be rejected
	// without huge allocation.
	traces := []darshan.DXTTrace{{
		Module: darshan.ModulePOSIX, Record: 1, Rank: 0,
		Segments: []darshan.DXTSegment{{Kind: darshan.OpRead, Length: 10}},
	}}
	e := encoder{buf: &bytes.Buffer{}}
	encodeDXT(&e, traces)
	payload := e.buf.Bytes()
	// Segment count lives after count(4)+module(1)+record(8)+rank(4).
	payload[4+1+8+4] = 0xFF
	payload[4+1+8+4+1] = 0xFF
	if _, err := decodeDXT(payload, DefaultLimits(), 0); err == nil {
		t.Error("expected error for inflated segment count")
	}
}
