package logfmt

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"iolayers/internal/darshan"
)

// encodeSample serializes one sample log and returns the bytes.
func encodeSample(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// buildArchive returns a terminated archive holding n sample logs, plus the
// cumulative stream offset after each complete entry frame.
func buildArchive(t *testing.T, n int) (data []byte, entryEnds []int64) {
	t.Helper()
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := aw.Append(sampleLog()); err != nil {
			t.Fatal(err)
		}
		entryEnds = append(entryEnds, aw.Offset())
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), entryEnds
}

// TestArchiveTruncationEveryByte truncates a small archive at every byte
// boundary — inside the header, inside an entry length prefix, mid-payload,
// and at entry boundaries — and asserts the full robustness contract: no
// panic, the damage classified as truncation, and every entry that lies
// wholly before the cut still returned.
func TestArchiveTruncationEveryByte(t *testing.T) {
	data, entryEnds := buildArchive(t, 3)
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		wantEntries := 0
		for _, end := range entryEnds {
			if int64(cut) >= end {
				wantEntries++
			}
		}
		ar, err := NewArchiveReader(bytes.NewReader(prefix))
		if err != nil {
			if cut >= archiveHeaderSize {
				t.Fatalf("cut=%d: header rejected despite being complete: %v", cut, err)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d: header error kind = %v, want ErrTruncated", cut, err)
			}
			continue
		}
		if cut < archiveHeaderSize {
			t.Fatalf("cut=%d: incomplete header accepted", cut)
		}
		got := 0
		var finalErr error
		for {
			log, err := ar.Next()
			if err != nil {
				finalErr = err
				break
			}
			if log.Job.JobID != 4242 {
				t.Fatalf("cut=%d entry %d: decoded wrong log", cut, got)
			}
			got++
		}
		if got != wantEntries {
			t.Fatalf("cut=%d: salvaged %d entries, want %d", cut, got, wantEntries)
		}
		if cut == len(data) {
			if !errors.Is(finalErr, io.EOF) {
				t.Fatalf("intact archive ended with %v, want io.EOF", finalErr)
			}
			continue
		}
		if errors.Is(finalErr, io.EOF) {
			// A cut exactly before the terminator still means the archive is
			// unterminated: the reader must report truncation, not EOF.
			t.Fatalf("cut=%d: truncated archive reported clean EOF", cut)
		}
		var de *DecodeError
		if !errors.As(finalErr, &de) {
			t.Fatalf("cut=%d: error is not *DecodeError: %v", cut, finalErr)
		}
		if de.Kind != KindTruncated {
			t.Fatalf("cut=%d: kind = %v, want truncated (%v)", cut, de.Kind, finalErr)
		}
		if !ar.Damaged() {
			t.Fatalf("cut=%d: truncation did not mark the reader damaged", cut)
		}
	}
}

// TestZlibBombRejected verifies the declared-size defense: a section
// claiming a huge uncompressed size is rejected before any inflation or
// allocation happens, with a typed limit error locating the section.
func TestZlibBombRejected(t *testing.T) {
	// The job section claims 4 GiB, under a CRC that holds.
	secs := splitLog(t, encodeSample(t))
	secs[0].size = 0xFFFFFFFF
	_, err := Read(bytes.NewReader(joinLog(secs)))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("bomb decode error = %v, want ErrLimit", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("bomb error is not *DecodeError: %v", err)
	}
	if de.Kind != KindLimitExceeded || de.Section != "job" || de.Offset != fileHeaderSize {
		t.Fatalf("bomb error = kind %v section %q offset %d, want limit-exceeded job %d",
			de.Kind, de.Section, de.Offset, fileHeaderSize)
	}
}

// TestZlibBombRealPayload builds an actual bomb — kilobytes of compressed
// zeros declaring megabytes — and checks a tight limit stops it.
func TestZlibBombRealPayload(t *testing.T) {
	const inflated = 8 << 20
	var compressed bytes.Buffer
	zw := zlib.NewWriter(&compressed)
	if _, err := zw.Write(make([]byte, inflated)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	bomb := joinLog([]rawSection{{typ: sectionJob, size: inflated, stream: compressed.Bytes()}})

	lim := DefaultLimits()
	lim.MaxSectionBytes = 1 << 16
	_, err := ReadWithLimits(bytes.NewReader(bomb), lim)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("real bomb error = %v, want ErrLimit", err)
	}
}

// TestDecodeLimitsCounts checks that each count the input controls is
// capped by its DecodeLimits field with a limit-exceeded classification.
func TestDecodeLimitsCounts(t *testing.T) {
	data := encodeSample(t)
	// sampleLog holds one record per module section; the records case needs
	// a section with several.
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 7, NProcs: 1})
	for _, p := range []string{"/gpfs/a", "/gpfs/b", "/gpfs/c"} {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: p,
			Kind: darshan.OpWrite, Size: 1, Start: 1, End: 2})
	}
	var multi bytes.Buffer
	if err := Write(&multi, rt.Finalize()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		lim  DecodeLimits
	}{
		{"records", multi.Bytes(), DecodeLimits{MaxRecords: 1}},
		{"names", data, DecodeLimits{MaxNames: 1}},
		{"metadata", data, DecodeLimits{MaxMetadataPairs: 1}},
		{"strings", data, DecodeLimits{MaxStringLen: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadWithLimits(bytes.NewReader(tc.data), tc.lim)
			if !errors.Is(err, ErrLimit) {
				t.Fatalf("error = %v, want ErrLimit", err)
			}
			var de *DecodeError
			if !errors.As(err, &de) || de.Kind != KindLimitExceeded {
				t.Fatalf("error not classified limit-exceeded: %v", err)
			}
		})
	}
	// The same log under default limits decodes cleanly.
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("default limits rejected a valid log: %v", err)
	}
}

// TestCorruptSectionOffset flips a bit in the first section's compressed
// payload and checks the CRC failure is located at that section's offset.
func TestCorruptSectionOffset(t *testing.T) {
	data := encodeSample(t)
	corrupt := bytes.Clone(data)
	corrupt[30] ^= 0x40 // inside the job section's compressed bytes
	_, err := Read(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("error is not *DecodeError: %v", err)
	}
	if de.Kind != KindCorrupt || de.Offset != fileHeaderSize {
		t.Fatalf("corruption located at kind %v offset %d, want corrupt at %d (%v)",
			de.Kind, de.Offset, fileHeaderSize, err)
	}
}

// TestArchiveEntryLimit checks an entry frame claiming more than
// MaxArchiveEntry ends iteration with a typed limit error.
func TestArchiveEntryLimit(t *testing.T) {
	data, _ := buildArchive(t, 1)
	huge := bytes.Clone(data)
	binary.LittleEndian.PutUint32(huge[archiveHeaderSize:], 0xFFFFFFF0)
	ar, err := NewArchiveReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ar.Next()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("error = %v, want ErrLimit", err)
	}
	if !ar.Damaged() {
		t.Fatal("untrusted entry length must end iteration")
	}
	if _, err := ar.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("damaged reader returned %v, want io.EOF", err)
	}
}

// TestArchiveSkipsCorruptEntry checks the streaming reader reports a
// well-framed corrupt entry once, classified, and then continues with the
// following entry.
func TestArchiveSkipsCorruptEntry(t *testing.T) {
	entry := encodeSample(t)
	frame := func(buf *bytes.Buffer, b []byte) {
		binary.Write(buf, binary.LittleEndian, uint32(len(b)))
		buf.Write(b)
	}
	var buf bytes.Buffer
	buf.Write(ArchiveMagic[:])
	binary.Write(&buf, binary.LittleEndian, Version)
	frame(&buf, entry)
	frame(&buf, []byte("framing is fine, contents are not"))
	frame(&buf, entry)
	binary.Write(&buf, binary.LittleEndian, uint32(0)) // terminator

	ar, err := NewArchiveReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var logs []*darshan.Log
	var entryErrs []*DecodeError
	for {
		log, err := ar.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if ar.Damaged() {
				t.Fatalf("well-framed corruption marked the stream damaged: %v", err)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("entry error is not *DecodeError: %v", err)
			}
			entryErrs = append(entryErrs, de)
			continue
		}
		logs = append(logs, log)
	}
	if len(logs) != 2 || len(entryErrs) != 1 {
		t.Fatalf("streaming: %d logs and %d errors, want 2 and 1", len(logs), len(entryErrs))
	}
	if entryErrs[0].Kind != KindBadMagic {
		t.Fatalf("garbage entry classified %v, want bad-magic", entryErrs[0].Kind)
	}
}

// rawSection is one section of an encoded log as its header describes it:
// type, module, declared uncompressed length and zlib stream, plus the
// offset of its header in the log it was split from.
type rawSection struct {
	typ, module uint8
	size        int
	stream      []byte
	start       int
}

// splitLog walks the sections of an encoded log.
func splitLog(t testing.TB, data []byte) []rawSection {
	t.Helper()
	var secs []rawSection
	off := fileHeaderSize
	for off < len(data) {
		n := int(binary.LittleEndian.Uint32(data[off+6:]))
		secs = append(secs, rawSection{
			typ:    data[off],
			module: data[off+1],
			size:   int(binary.LittleEndian.Uint32(data[off+2:])),
			stream: data[off+sectionHeaderSize : off+sectionHeaderSize+n],
			start:  off,
		})
		off += sectionHeaderSize + n
	}
	if end := fileHeaderSize + int(binary.LittleEndian.Uint32(data[6:])); off != end || off != len(data) {
		t.Fatalf("sections end at %d, the header says %d, the log has %d bytes", off, end, len(data))
	}
	return secs
}

// joinLog encodes sections as a log whose every checksum holds: the header's
// length and CRC and each section's CRC are computed afresh.
func joinLog(secs []rawSection) []byte {
	out := make([]byte, fileHeaderSize)
	for _, s := range secs {
		var hdr [sectionHeaderSize]byte
		hdr[0], hdr[1] = s.typ, s.module
		binary.LittleEndian.PutUint32(hdr[2:], uint32(s.size))
		binary.LittleEndian.PutUint32(hdr[6:], uint32(len(s.stream)))
		binary.LittleEndian.PutUint32(hdr[10:], sectionCRC(hdr[:10], s.stream))
		out = append(append(out, hdr[:]...), s.stream...)
	}
	copy(out, Magic[:])
	binary.LittleEndian.PutUint16(out[4:], Version)
	binary.LittleEndian.PutUint32(out[6:], uint32(len(out)-fileHeaderSize))
	binary.LittleEndian.PutUint32(out[10:], crc32.ChecksumIEEE(out[:10]))
	return out
}

// inflated returns a section's payload.
func (s rawSection) inflated(t testing.TB) []byte {
	t.Helper()
	zr, err := zlib.NewReader(bytes.NewReader(s.stream))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// withPayload returns the section carrying payload, its declared length
// made to match.
func (s rawSection) withPayload(payload []byte) rawSection {
	var stream bytes.Buffer
	zw := zlib.NewWriter(&stream)
	zw.Write(payload)
	zw.Close()
	s.stream, s.size = stream.Bytes(), len(payload)
	return s
}

// oneRecordLog encodes a log holding a single POSIX record.
func oneRecordLog(t *testing.T) []byte {
	t.Helper()
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 5, NProcs: 1, Exe: "/bin/app",
		Metadata: map[string]string{"domain": "Physics"}})
	rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: "/gpfs/a",
		Kind: darshan.OpWrite, Size: 4096, Start: 1, End: 2})
	var buf bytes.Buffer
	if err := Write(&buf, rt.Finalize()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorruptAt requires err to report corruption of the section at start.
func wantCorruptAt(t *testing.T, err error, sec rawSection) {
	t.Helper()
	name := sectionName(sec.typ)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("%s section at %d: error = %v, want a corrupt *DecodeError", name, sec.start, err)
	}
	if de.Kind != KindCorrupt || de.Section != name || de.Offset != int64(sec.start) {
		t.Fatalf("%s section at %d: got %v %s at %d (%v)", name, sec.start,
			de.Kind, de.Section, de.Offset, err)
	}
}

// TestSectionBadAdlerIsCorrupt damages each section's adler32 trailer and
// nothing else — the section CRC is recomputed — and requires the reader to
// notice: compress/zlib reports the mismatch on the Read that returns the
// last bytes, and io.ReadFull discards it.
func TestSectionBadAdlerIsCorrupt(t *testing.T) {
	data := oneRecordLog(t)
	for k, sec := range splitLog(t, data) {
		secs := splitLog(t, data)
		stream := bytes.Clone(sec.stream)
		stream[len(stream)-1] ^= 0xff
		secs[k].stream = stream
		_, err := Read(bytes.NewReader(joinLog(secs)))
		wantCorruptAt(t, err, sec)
	}
}

// TestSectionLongerThanDeclaredIsCorrupt re-encodes each section's payload
// 400 bytes longer, or one byte shorter, than the length its header keeps
// declaring. Neither is the section the header describes.
func TestSectionLongerThanDeclaredIsCorrupt(t *testing.T) {
	data := oneRecordLog(t)
	for _, tc := range []struct {
		name   string
		change func([]byte) []byte
	}{
		{"400 bytes longer", func(p []byte) []byte { return append(p, make([]byte, 400)...) }},
		{"one byte short", func(p []byte) []byte { return p[:len(p)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k, sec := range splitLog(t, data) {
				secs := splitLog(t, data)
				secs[k] = sec.withPayload(tc.change(sec.inflated(t)))
				secs[k].size = sec.size
				_, err := Read(bytes.NewReader(joinLog(secs)))
				wantCorruptAt(t, err, sec)
			}
		})
	}
}

// TestTrailingBytesAreCorrupt appends bytes to each section's payload and
// declares them: the section is well framed and inflates, but its decoder
// must end exactly at the payload's end. A module section gets both one
// stray byte and a whole record's worth more than its count says.
func TestTrailingBytesAreCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, dxtLog()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	recSize := 12 + 8*(darshan.NumCounters(darshan.ModulePOSIX)+darshan.NumFCounters(darshan.ModulePOSIX))
	seen := map[uint8]bool{}
	for k, sec := range splitLog(t, data) {
		extra := []int{1}
		if sec.typ == sectionModule && darshan.ModuleID(sec.module) == darshan.ModulePOSIX {
			extra = append(extra, recSize)
		}
		for _, n := range extra {
			secs := splitLog(t, data)
			secs[k] = sec.withPayload(append(sec.inflated(t), make([]byte, n)...))
			_, err := Read(bytes.NewReader(joinLog(secs)))
			wantCorruptAt(t, err, sec)
		}
		seen[sec.typ] = true
	}
	for _, typ := range []uint8{sectionJob, sectionNames, sectionModule, sectionDXT} {
		if !seen[typ] {
			t.Errorf("no %s section was tested", sectionName(typ))
		}
	}
}

// TestEveryBitFlipIsAnError flips each bit of the golden log in turn. Every
// flip must fail the decode: a flip in the magic is bad-magic, one in the
// version is bad-version, and every other flip — a header field, a length,
// a section type or module byte, a CRC, a compressed byte — is corrupt.
func TestEveryBitFlipIsAnError(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.darshan"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden {
		want := KindCorrupt
		switch {
		case i < 4:
			want = KindBadMagic
		case i < 6:
			want = KindBadVersion
		}
		for bit := 0; bit < 8; bit++ {
			b := bytes.Clone(golden)
			b[i] ^= 1 << bit
			_, err := Read(bytes.NewReader(b))
			if kind, ok := KindOf(err); !ok || kind != want {
				t.Errorf("byte %d bit %d: error %v, want %v", i, bit, err, want)
			}
		}
	}
}
