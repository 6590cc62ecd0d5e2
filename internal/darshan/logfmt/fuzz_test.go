package logfmt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz limits: tight enough that a crafted input cannot make the fuzz
// harness itself allocate gigabytes, loose enough that the golden seeds
// decode cleanly.
func fuzzLimits() DecodeLimits {
	return DecodeLimits{
		MaxSectionBytes:    1 << 20,
		MaxCompressedBytes: 1 << 20,
		MaxRecords:         1 << 12,
		MaxNames:           1 << 12,
		MaxDXTTraces:       1 << 10,
		MaxDXTSegments:     1 << 10,
		MaxStringLen:       1 << 12,
		MaxMetadataPairs:   1 << 8,
		MaxArchiveEntry:    1 << 20,
	}
}

// checkDecodeErr asserts the error contract fuzzing enforces: every decode
// failure is a *DecodeError that unwraps to exactly one package sentinel.
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("decode failure is not a *DecodeError: %v", err)
	}
	sentinels := 0
	for _, s := range []error{ErrTruncated, ErrCorrupt, ErrLimit, ErrBadMagic, ErrVersion} {
		if errors.Is(err, s) {
			sentinels++
		}
	}
	if sentinels != 1 {
		t.Fatalf("error matches %d sentinels, want exactly 1: %v", sentinels, err)
	}
	if de.Section == "" {
		t.Fatalf("DecodeError without section: %v", err)
	}
}

func fuzzSeedBytes(f *testing.F) {
	f.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.darshan"))
	if err != nil {
		f.Fatalf("reading golden seed: %v", err)
	}
	f.Add(golden)
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		f.Fatalf("encoding seed log: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(Magic[:])
	f.Add([]byte{'D', 'G', 'O', 'L', 2, 0, 0xFF, 0xFF, 0xFF, 0xFF})
}

// FuzzRead feeds arbitrary bytes to the single-log decoder. The properties
// under test: no panic, no unbounded allocation (the limits above cap every
// count the input controls), and every failure classified per the
// *DecodeError taxonomy. Successful decodes must re-encode. A Decoder
// reused across inputs, failed ones included, must give the same result.
func FuzzRead(f *testing.F) {
	fuzzSeedBytes(f)
	lim := fuzzLimits()
	var reused Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadWithLimits(bytes.NewReader(data), lim)
		again, againErr := reused.Decode(bytes.NewReader(data), lim)
		if err != nil {
			checkDecodeErr(t, err)
			if againErr == nil || againErr.Error() != err.Error() {
				t.Fatalf("reused decoder: %v, ReadWithLimits: %v", againErr, err)
			}
			return
		}
		if log == nil {
			t.Fatal("nil log with nil error")
		}
		if againErr != nil {
			t.Fatalf("reused decoder failed where ReadWithLimits did not: %v", againErr)
		}
		// Encoded bytes compare NaN counters by their bits.
		var want, got bytes.Buffer
		if err := Write(&want, log); err != nil {
			t.Fatalf("decoded log failed to re-encode: %v", err)
		}
		if err := Write(&got, again); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("reused decoder's log differs from ReadWithLimits' (%v)", err)
		}
	})
}

// FuzzArchiveReader walks arbitrary bytes as a campaign archive. Properties:
// no panic, iteration always terminates, framing errors end iteration while
// per-entry parse errors do not, and every failure obeys the error taxonomy.
func FuzzArchiveReader(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.darshan"))
	if err != nil {
		f.Fatalf("reading golden seed: %v", err)
	}
	var arch bytes.Buffer
	aw, err := NewArchiveWriter(&arch)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := aw.Append(sampleLog()); err != nil {
			f.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(arch.Bytes())
	// A two-entry archive whose first entry is the golden log and whose
	// second is garbage inside a valid frame: exercises the skip path.
	var mixed bytes.Buffer
	mixed.Write(arch.Bytes()[:archiveHeaderSize])
	writeFrame := func(b []byte) {
		var n [4]byte
		n[0] = byte(len(b))
		n[1] = byte(len(b) >> 8)
		n[2] = byte(len(b) >> 16)
		n[3] = byte(len(b) >> 24)
		mixed.Write(n[:])
		mixed.Write(b)
	}
	writeFrame(golden)
	writeFrame([]byte("not a log at all"))
	mixed.Write([]byte{0, 0, 0, 0})
	f.Add(mixed.Bytes())
	f.Add([]byte{})
	f.Add(ArchiveMagic[:])

	lim := fuzzLimits()
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := NewArchiveReaderWithLimits(bytes.NewReader(data), lim)
		if err != nil {
			if !errors.Is(err, ErrNotArchive) {
				checkDecodeErr(t, err)
			}
			return
		}
		lastOff := ar.InputOffset()
		for {
			_, err := ar.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				checkDecodeErr(t, err)
				if ar.Damaged() {
					if _, err := ar.Next(); !errors.Is(err, io.EOF) {
						t.Fatalf("reader not terminal after framing damage: %v", err)
					}
					return
				}
			}
			// A usable reader must make progress or iteration never ends.
			if off := ar.InputOffset(); off <= lastOff {
				t.Fatalf("no forward progress: offset %d after %d", off, lastOff)
			} else {
				lastOff = off
			}
		}
	})
}
