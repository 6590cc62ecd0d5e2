package logfmt

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"iolayers/internal/darshan"
)

// encodeSample serializes one sample log and returns the bytes.
func encodeSample(t *testing.T) []byte {
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
	data := encodeSample(t)
	// First section header starts after magic(4)+version(2)+count(2); its
	// uncompressedLen field sits 2 bytes in (after type and module).
	bomb := bytes.Clone(data)
	binary.LittleEndian.PutUint32(bomb[10:], 0xFFFFFFFF)
	_, err := Read(bytes.NewReader(bomb))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("bomb decode error = %v, want ErrLimit", err)
	}
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("bomb error is not *DecodeError: %v", err)
	}
	if de.Kind != KindLimitExceeded || de.Section != "job" || de.Offset != 8 {
		t.Fatalf("bomb error = kind %v section %q offset %d, want limit-exceeded job 8",
			de.Kind, de.Section, de.Offset)
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

	var buf bytes.Buffer
	buf.Write(Magic[:])
	binary.Write(&buf, binary.LittleEndian, Version)
	binary.Write(&buf, binary.LittleEndian, uint16(1))
	buf.WriteByte(sectionJob)
	buf.WriteByte(0)
	binary.Write(&buf, binary.LittleEndian, uint32(inflated))
	binary.Write(&buf, binary.LittleEndian, uint32(compressed.Len()))
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(compressed.Bytes()))
	buf.Write(compressed.Bytes())

	lim := DefaultLimits()
	lim.MaxSectionBytes = 1 << 16
	_, err := ReadWithLimits(bytes.NewReader(buf.Bytes()), lim)
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
	if de.Kind != KindCorrupt || de.Offset != 8 {
		t.Fatalf("corruption located at kind %v offset %d, want corrupt at 8 (%v)",
			de.Kind, de.Offset, err)
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
