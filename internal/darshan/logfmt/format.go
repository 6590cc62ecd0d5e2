// Package logfmt implements the compressed, binary on-disk format for
// Darshan-equivalent logs (paper §2.2, Figure 2).
//
// A log file is a checked header followed by a sequence of sections. Each
// section is independently zlib-compressed and CRC-checked, and readers skip
// section types they do not understand:
//
//	header:  magic "DGOL" | version u16 | length u32 | crc32(magic..length) u32
//	section: type u8 | module u8 | uncompressedLen u32 | compressedLen u32 |
//	         crc32(type..compressedLen, compressed) u32 | zlib payload
//
// length is the byte length of the sections that follow the header. Every
// header byte is checked: the file header's CRC covers the ten bytes before
// it, and a section's CRC covers its own header fields as well as its
// compressed bytes, so a flipped bit anywhere past the magic and version is
// a corrupt log, never a log with a section silently dropped. The checked
// length is what tells the two failures apart that a length field can
// cause: a section claiming more bytes than the log holds is corrupt, while
// a stream that ends before the log's length is truncated.
//
// Section types are job (the execution metadata record), names (the
// RecordID→path table), module (one per instrumentation module) and dxt.
// The layout is versioned, not self-describing: a module section is a record
// count followed by fixed-width records whose counters are the module's
// compiled-in layout (darshan.CounterNames), as darshan-util maps a module
// to the counter names it was built with. A module this build does not know
// is refused as a version mismatch. The next change to a known section's
// layout bumps Version; a new section type that readers may skip does not.
//
// All integers are little-endian. Each zlib payload is a complete RFC 1950
// stream, and the reader holds it to that: its adler32 trailer must match,
// it must inflate to exactly the section's uncompressedLen, and the section's
// decoder must consume that payload to its last byte.
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

// Version is the format version, and it names the layout: version 2 is
// every module's compiled-in counter layout with checked headers. Readers
// accept only this version; version 1 (per-log counter-name tables, headers
// outside every CRC) is refused with the way to regenerate it.
const Version uint16 = 2

// versionErr refuses a log or an archive of another format version. Version
// 1 is refused by name, with the way to a readable copy: no reader for it is
// kept.
func versionErr(section, what string, v uint16) *DecodeError {
	if v == 1 {
		return decodeErrf(KindBadVersion, section, 0,
			"%s format version 1 is no longer read (this build reads version %d): "+
				"regenerate it with `iostudy gen`, or run `iostudy -save` again", what, Version)
	}
	return decodeErrf(KindBadVersion, section, 0, "%s version %d (supported: %d)", what, v, Version)
}

// fileHeaderSize is the byte length of a log's header: magic, version,
// length and the CRC of those ten bytes. sectionHeaderSize is a section's:
// type, module, both lengths and the CRC.
const (
	fileHeaderSize    = 14
	sectionHeaderSize = 14
)

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

// Write serializes a log to w in one Write call, or writes nothing if the
// log cannot be encoded. All codec and scratch state is pooled, so
// steady-state writing allocates almost nothing per log.
func Write(w io.Writer, log *darshan.Log) error {
	if log == nil {
		return errors.New("logfmt: nil log")
	}
	modules, err := modulesInLog(log)
	if err != nil {
		return err
	}

	out := getBuf()     // the whole log, header first
	scratch := getBuf() // section payload under construction
	zw := getZlibWriter(io.Discard)
	defer func() {
		putZlibWriter(zw)
		putBuf(scratch)
		putBuf(out)
	}()
	var hdr [fileHeaderSize]byte
	out.Write(hdr[:]) // filled in once the sections' length is known
	e := encoder{buf: scratch}

	section := func(sectionType, module uint8) error {
		err := appendSection(out, sectionType, module, scratch.Bytes(), zw)
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

	b := out.Bytes()
	copy(b, Magic[:])
	binary.LittleEndian.PutUint16(b[4:], Version)
	binary.LittleEndian.PutUint32(b[6:], uint32(len(b)-fileHeaderSize))
	binary.LittleEndian.PutUint32(b[10:], crc32.ChecksumIEEE(b[:10]))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("logfmt: writing log: %w", err)
	}
	return nil
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

// modulesInLog returns the modules the log's records belong to, in order.
// Every record must have its module's compiled-in layout: that layout is
// all a reader is told.
func modulesInLog(log *darshan.Log) ([]darshan.ModuleID, error) {
	seen := map[darshan.ModuleID]bool{}
	for _, r := range log.Records {
		nc, nf := darshan.NumCounters(r.Module), darshan.NumFCounters(r.Module)
		if nc == 0 || len(r.Counters) != nc || len(r.FCounters) != nf {
			return nil, fmt.Errorf("logfmt: %s record %016x has %d+%d counters, the module's layout has %d+%d",
				r.Module, uint64(r.Record), len(r.Counters), len(r.FCounters), nc, nf)
		}
		seen[r.Module] = true
	}
	mods := make([]darshan.ModuleID, 0, len(seen))
	for m := range seen {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i] < mods[j] })
	return mods, nil
}

// appendSection compresses payload onto out as one section, header first.
func appendSection(out *bytes.Buffer, sectionType, module uint8, payload []byte, zw *zlib.Writer) error {
	start := out.Len()
	var hdr [sectionHeaderSize]byte
	out.Write(hdr[:]) // filled in once the compressed length is known
	zw.Reset(out)
	if _, err := zw.Write(payload); err != nil {
		return fmt.Errorf("logfmt: compressing section %d: %w", sectionType, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("logfmt: finishing compression: %w", err)
	}
	sec := out.Bytes()[start:]
	sec[0] = sectionType
	sec[1] = module
	binary.LittleEndian.PutUint32(sec[2:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(sec[6:], uint32(len(sec)-sectionHeaderSize))
	binary.LittleEndian.PutUint32(sec[10:], sectionCRC(sec[:10], sec[sectionHeaderSize:]))
	return nil
}

// sectionCRC is the checksum a section header carries: the header fields
// before it, then the compressed payload.
func sectionCRC(hdr, compressed []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, compressed)
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

// encodeModule serializes the records of one module as a count and
// fixed-width records, filtering allRecords in place (no intermediate
// per-module slice).
func encodeModule(e *encoder, m darshan.ModuleID, allRecords []*darshan.FileRecord) {
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
