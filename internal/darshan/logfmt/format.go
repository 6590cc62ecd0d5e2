// Package logfmt implements the self-describing, compressed, binary on-disk
// format for Darshan-equivalent logs (paper §2.2, Figure 2).
//
// A log file is a fixed header followed by a sequence of sections. Each
// section is independently zlib-compressed and CRC-checked, so a log remains
// partially readable if one section is damaged, and readers can skip
// sections they do not understand:
//
//	header:  magic "DGOL" | version u16 | section count u16
//	section: type u8 | module u8 | uncompressedLen u32 | compressedLen u32 |
//	         crc32(compressed) u32 | zlib payload
//
// Section types are job (the execution metadata record), names (the
// RecordID→path table), and module (one per instrumentation module). Module
// sections embed their counter-name tables, which is what makes the format
// self-describing: a reader confronted with records written by a newer
// module revision remaps counters by name rather than by index.
//
// All integers are little-endian. Each zlib payload is a complete RFC 1950
// stream, and the reader holds it to that: its adler32 trailer must match,
// and it must inflate to exactly the section's uncompressedLen.
package logfmt

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"iolayers/internal/darshan"
)

// Magic identifies a Darshan-Go log file.
var Magic = [4]byte{'D', 'G', 'O', 'L'}

// Version is the current format version. Readers accept only versions they
// know; the section framing lets future versions add section types without
// breaking old readers of the same version.
const Version uint16 = 1

// Section types.
const (
	sectionJob    uint8 = 0
	sectionNames  uint8 = 1
	sectionModule uint8 = 2
	sectionDXT    uint8 = 3
)

// Sentinel errors returned (wrapped) by Read.
var (
	// ErrBadMagic marks a file that is not a Darshan-Go log at all.
	ErrBadMagic = errors.New("logfmt: bad magic")
	// ErrVersion marks an unsupported format version.
	ErrVersion = errors.New("logfmt: unsupported version")
	// ErrCorrupt marks a CRC mismatch or malformed section payload.
	ErrCorrupt = errors.New("logfmt: corrupt log")
	// ErrTruncated marks a log that ends mid-section.
	ErrTruncated = errors.New("logfmt: truncated log")
)

// maxStringLen is the format's hard cap: strings are u16-length prefixed.
// Decode-side bounds (including tighter string limits) live in DecodeLimits.
const maxStringLen = 1 << 16

// Write serializes a log to w. All codec and scratch state is pooled, so
// steady-state writing allocates almost nothing per log.
func Write(w io.Writer, log *darshan.Log) error {
	if log == nil {
		return errors.New("logfmt: nil log")
	}
	modules := modulesInLog(log)
	sectionCount := 2 + len(modules)
	if len(log.DXT) > 0 {
		sectionCount++
	}

	bw, flush := buffered(w)
	var hdr [8]byte
	copy(hdr[:4], Magic[:])
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(sectionCount))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("logfmt: writing header: %w", err)
	}

	scratch := getBuf()    // section payload under construction
	compressed := getBuf() // its deflated form
	zw := getZlibWriter(io.Discard)
	defer func() {
		putZlibWriter(zw)
		putBuf(compressed)
		putBuf(scratch)
	}()
	e := encoder{buf: scratch}

	section := func(sectionType, module uint8) error {
		err := writeSection(bw, sectionType, module, scratch.Bytes(), compressed, zw)
		scratch.Reset()
		return err
	}

	encodeJob(&e, log.Job)
	if err := section(sectionJob, 0); err != nil {
		return err
	}
	encodeNames(&e, log.Names)
	if err := section(sectionNames, 0); err != nil {
		return err
	}
	for _, m := range modules {
		encodeModule(&e, m, log.Records)
		if err := section(sectionModule, uint8(m)); err != nil {
			return err
		}
	}
	if len(log.DXT) > 0 {
		encodeDXT(&e, log.DXT)
		if err := section(sectionDXT, 0); err != nil {
			return err
		}
	}
	return flush()
}

// WriteFile writes a log to path, creating or truncating it.
func WriteFile(path string, log *darshan.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("logfmt: creating %s: %w", path, err)
	}
	if err := Write(f, log); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("logfmt: closing %s: %w", path, err)
	}
	return nil
}

func modulesInLog(log *darshan.Log) []darshan.ModuleID {
	seen := map[darshan.ModuleID]bool{}
	for _, r := range log.Records {
		seen[r.Module] = true
	}
	mods := make([]darshan.ModuleID, 0, len(seen))
	for m := range seen {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i] < mods[j] })
	return mods
}

func writeSection(w io.Writer, sectionType, module uint8, payload []byte,
	compressed *bytes.Buffer, zw *zlib.Writer) error {
	compressed.Reset()
	zw.Reset(compressed)
	if _, err := zw.Write(payload); err != nil {
		return fmt.Errorf("logfmt: compressing section %d: %w", sectionType, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("logfmt: finishing compression: %w", err)
	}
	var hdr [14]byte
	hdr[0] = sectionType
	hdr[1] = module
	binary.LittleEndian.PutUint32(hdr[2:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[6:], uint32(compressed.Len()))
	binary.LittleEndian.PutUint32(hdr[10:], crc32.ChecksumIEEE(compressed.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("logfmt: writing section header: %w", err)
	}
	if _, err := w.Write(compressed.Bytes()); err != nil {
		return fmt.Errorf("logfmt: writing section payload: %w", err)
	}
	return nil
}

// encoder accumulates little-endian primitives into a caller-owned (pooled)
// buffer; all encode* helpers build on it. Writes to a bytes.Buffer cannot
// fail, so no error plumbing.
type encoder struct{ buf *bytes.Buffer }

func (e *encoder) u8(v uint8) { e.buf.WriteByte(v) }
func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) i32(v int32) { e.u32(uint32(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	if len(s) >= maxStringLen {
		s = s[:maxStringLen-1]
	}
	e.u16(uint16(len(s)))
	e.buf.WriteString(s)
}

func encodeJob(e *encoder, job darshan.JobHeader) {
	e.u64(job.JobID)
	e.u64(job.UserID)
	e.u32(uint32(job.NProcs))
	e.i64(job.StartTime)
	e.i64(job.EndTime)
	e.str(job.Exe)
	keys := make([]string, 0, len(job.Metadata))
	for k := range job.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u16(uint16(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(job.Metadata[k])
	}
}

func encodeNames(e *encoder, names map[darshan.RecordID]string) {
	ids := make([]darshan.RecordID, 0, len(names))
	for id := range names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.u64(uint64(id))
		e.str(names[id])
	}
}

func encodeDXT(e *encoder, traces []darshan.DXTTrace) {
	e.u32(uint32(len(traces)))
	for _, tr := range traces {
		e.u8(uint8(tr.Module))
		e.u64(uint64(tr.Record))
		e.i32(tr.Rank)
		e.u32(uint32(len(tr.Segments)))
		for _, s := range tr.Segments {
			e.u8(uint8(s.Kind))
			e.i64(s.Offset)
			e.i64(s.Length)
			e.f64(s.Start)
			e.f64(s.End)
		}
	}
}

// encodeModule serializes the records of one module, filtering allRecords in
// place (no intermediate per-module slice).
func encodeModule(e *encoder, m darshan.ModuleID, allRecords []*darshan.FileRecord) {
	counterNames := darshan.CounterNames(m)
	fcounterNames := darshan.FCounterNames(m)
	e.u16(uint16(len(counterNames)))
	for _, n := range counterNames {
		e.str(n)
	}
	e.u16(uint16(len(fcounterNames)))
	for _, n := range fcounterNames {
		e.str(n)
	}
	count := uint32(0)
	for _, r := range allRecords {
		if r.Module == m {
			count++
		}
	}
	e.u32(count)
	for _, r := range allRecords {
		if r.Module != m {
			continue
		}
		e.u64(uint64(r.Record))
		e.i32(r.Rank)
		for _, c := range r.Counters {
			e.i64(c)
		}
		for _, f := range r.FCounters {
			e.f64(f)
		}
	}
}
