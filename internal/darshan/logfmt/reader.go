package logfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"iolayers/internal/darshan"
)

// countReader tracks the byte offset of the underlying stream so decode
// errors can locate the damaged structure.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Read parses a log from r under DefaultLimits. Unknown section types are
// skipped. For module sections, counters are remapped by name into the
// current module layout, so logs written by older or newer revisions of a
// module remain readable as long as counter names persist.
func Read(r io.Reader) (*darshan.Log, error) {
	return ReadWithLimits(r, DefaultLimits())
}

// ReadWithLimits parses a log from r, treating it as untrusted: every
// declared length, count, and size is validated against lim and against
// what the input could actually hold before anything is allocated. Failures
// return a *DecodeError classifying the damage (truncated vs corrupt vs
// limit-exceeded) with the byte offset of the damaged section; the error
// also unwraps to the matching package sentinel.
//
// Classification contract (shared with the archive paths): input that ends
// before a structure it promised is KindTruncated; bytes that are present
// but wrong — CRC mismatches, impossible counts, malformed payloads — are
// KindCorrupt; well-formed input demanding more than lim allows is
// KindLimitExceeded.
//
// The log is the caller's. A loop that is done with each log before it reads
// the next can decode through a Decoder instead, which reuses the log.
func ReadWithLimits(r io.Reader, lim DecodeLimits) (*darshan.Log, error) {
	rs := getReadState()
	defer putReadState(rs)
	return rs.decode(new(logStore), r, lim)
}

// Decoder decodes logs one after another into storage it reuses: the log,
// its name and metadata maps, its file records and their counter arrays, and
// the section scratch and inflate tables. Once warm it allocates, per log,
// only the strings the log carries (and DXT traces, which it does not
// reuse). The zero value is ready to use; a Decoder is not safe for
// concurrent use.
type Decoder struct {
	rs readState
	st *logStore
}

// Decode parses one log from r exactly as ReadWithLimits does, with the
// same checks and errors. The log and every map, slice and record it holds
// belong to d and are overwritten by the next Decode, so copy out whatever
// must outlive it (its strings are never reused). A failed Decode leaves
// nothing behind for the next one.
func (d *Decoder) Decode(r io.Reader, lim DecodeLimits) (*darshan.Log, error) {
	if d.st == nil {
		d.st = new(logStore)
	}
	log, err := d.rs.decode(d.st, r, lim)
	// An outsized log's storage is dropped rather than kept for every log
	// after it; the log just decoded still holds it.
	if d.st.outgrown() {
		d.st = nil
	}
	if d.rs.outgrown() {
		d.rs.compressed, d.rs.payload = nil, nil
	}
	return log, err
}

// logStore is the storage a decoded log lives in. A Decoder reuses one from
// log to log; ReadWithLimits decodes into a fresh one that goes to the
// caller with the log.
type logStore struct {
	log    darshan.Log
	meta   map[string]string // Job.Metadata's map, kept while a log has none
	ptrs   []*darshan.FileRecord
	recs   []darshan.FileRecord
	ints   []int64   // the records' Counters
	floats []float64 // the records' FCounters
}

// reset empties the store for the next log. It first sizes the backing
// arrays to hold the last log whole, so that a Decoder stops allocating once
// it has seen its largest log: records takes what does not fit from arrays
// of just the size one section needs.
func (st *logStore) reset() {
	nc, nf := 0, 0
	for _, r := range st.ptrs {
		nc += len(r.Counters)
		nf += len(r.FCounters)
	}
	st.recs = reserve(st.recs[:0], len(st.ptrs))
	st.ints = reserve(st.ints[:0], nc)
	st.floats = reserve(st.floats[:0], nf)
	st.ptrs = st.ptrs[:0]
	clear(st.log.Names)
	clear(st.meta)
	st.log = darshan.Log{Names: st.log.Names}
}

// records returns n records with counter arrays of the given widths, taken
// from the store's backing arrays. A short array is replaced rather than
// grown: records already handed out keep pointing into the old one. Each
// record's arrays are capped, so appending to one cannot reach the next
// record's.
func (st *logStore) records(n, nc, nf int) []darshan.FileRecord {
	st.recs = reserve(st.recs, n)
	st.ints = reserve(st.ints, n*nc)
	st.floats = reserve(st.floats, n*nf)
	recs := take(&st.recs, n)
	for i := range recs {
		recs[i].Counters = take(&st.ints, nc)
		recs[i].FCounters = take(&st.floats, nf)
	}
	return recs
}

// outgrown reports whether one log grew the store past what a Decoder keeps
// for the next: the bound pooled scratch has.
func (st *logStore) outgrown() bool {
	size := cap(st.recs)*int(unsafe.Sizeof(darshan.FileRecord{})) +
		8*(cap(st.ptrs)+cap(st.ints)+cap(st.floats)) + 24*len(st.log.Names)
	return size > maxPooledBuf
}

// reserve returns s if it has room for n more elements, else an empty slice
// with room for n.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return make([]T, 0, n)
}

// take extends *s by n elements and returns them, capped.
func take[T any](s *[]T, n int) []T {
	if n == 0 {
		return []T{}
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

// decode parses one log from r into st, through rs's scratch: the one decode
// behind ReadWithLimits and Decoder.Decode.
func (rs *readState) decode(st *logStore, r io.Reader, lim DecodeLimits) (*darshan.Log, error) {
	lim = lim.sanitize()
	st.reset()
	rs.cr = countReader{r: r}
	defer func() { rs.cr.r = nil }()
	cr := &rs.cr
	if _, err := io.ReadFull(cr, rs.hdr[:4]); err != nil {
		return nil, decodeErrf(KindTruncated, "header", 0, "reading magic: %v", err)
	}
	if [4]byte(rs.hdr[:4]) != Magic {
		return nil, decodeErrf(KindBadMagic, "header", 0, "got %q", rs.hdr[:4])
	}
	if _, err := io.ReadFull(cr, rs.hdr[:2]); err != nil {
		return nil, decodeErrf(KindTruncated, "header", 0, "reading version: %v", err)
	}
	if version := binary.LittleEndian.Uint16(rs.hdr[:]); version != Version {
		return nil, decodeErrf(KindBadVersion, "header", 0, "version %d (supported: %d)", version, Version)
	}
	if _, err := io.ReadFull(cr, rs.hdr[:2]); err != nil {
		return nil, decodeErrf(KindTruncated, "header", 0, "reading section count: %v", err)
	}
	sectionCount := binary.LittleEndian.Uint16(rs.hdr[:])

	sawJob := false
	for s := 0; s < int(sectionCount); s++ {
		sectionStart := cr.n
		sectionType, module, payload, err := rs.readSection(cr, lim, sectionStart)
		if err != nil {
			return nil, err
		}
		switch sectionType {
		case sectionJob:
			if err := decodeJob(payload, lim, sectionStart, st); err != nil {
				return nil, err
			}
			sawJob = true
		case sectionNames:
			if err := decodeNames(payload, lim, sectionStart, st); err != nil {
				return nil, err
			}
		case sectionModule:
			if err := decodeModule(darshan.ModuleID(module), payload, lim, sectionStart, st); err != nil {
				return nil, err
			}
		case sectionDXT:
			traces, err := decodeDXT(payload, lim, sectionStart)
			if err != nil {
				return nil, err
			}
			st.log.DXT = append(st.log.DXT, traces...)
		default:
			// Unknown section type: skipped for forward compatibility.
		}
	}
	if !sawJob {
		return nil, decodeErrf(KindCorrupt, "header", 0, "no job section among %d sections", sectionCount)
	}
	if st.log.Names == nil {
		st.log.Names = map[darshan.RecordID]string{}
	}
	if len(st.ptrs) > 0 {
		st.log.Records = st.ptrs
	}
	return &st.log, nil
}

// ReadFile reads and parses the log at path.
func ReadFile(path string) (*darshan.Log, error) {
	return ReadFileWithLimits(path, DefaultLimits())
}

// ReadFileWithLimits is ReadWithLimits over the file at path.
func ReadFileWithLimits(path string, lim DecodeLimits) (*darshan.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("logfmt: opening %s: %w", path, err)
	}
	defer f.Close()
	log, err := ReadWithLimits(f, lim)
	if err != nil {
		return nil, fmt.Errorf("logfmt: parsing %s: %w", path, err)
	}
	return log, nil
}

// sectionName renders a section type for error messages.
func sectionName(t uint8) string {
	switch t {
	case sectionJob:
		return "job"
	case sectionNames:
		return "names"
	case sectionModule:
		return "module"
	case sectionDXT:
		return "dxt"
	default:
		return fmt.Sprintf("section-%d", t)
	}
}

// readSection reads one section into the scratch. The returned payload
// aliases rs.payload and is valid only until the next readSection call on
// the same state; decoders copy out everything they keep. The declared sizes
// are validated against lim before any allocation, which is what stops a
// zlib bomb: a section claiming a huge uncompressed size is rejected without
// inflating a single byte, and one that inflates past what it claims fails.
func (rs *readState) readSection(r io.Reader, lim DecodeLimits, start int64) (sectionType, module uint8, payload []byte, err error) {
	if _, err := io.ReadFull(r, rs.hdr[:]); err != nil {
		return 0, 0, nil, decodeErrf(KindTruncated, "section", start, "section header: %v", err)
	}
	sectionType = rs.hdr[0]
	module = rs.hdr[1]
	name := sectionName(sectionType)
	uncompressedLen := binary.LittleEndian.Uint32(rs.hdr[2:])
	compressedLen := binary.LittleEndian.Uint32(rs.hdr[6:])
	wantCRC := binary.LittleEndian.Uint32(rs.hdr[10:])
	if int64(uncompressedLen) > int64(lim.MaxSectionBytes) {
		return 0, 0, nil, decodeErrf(KindLimitExceeded, name, start,
			"section claims %d uncompressed bytes (limit %d)", uncompressedLen, lim.MaxSectionBytes)
	}
	if int64(compressedLen) > int64(lim.MaxCompressedBytes) {
		return 0, 0, nil, decodeErrf(KindLimitExceeded, name, start,
			"section claims %d compressed bytes (limit %d)", compressedLen, lim.MaxCompressedBytes)
	}
	rs.compressed = grow(rs.compressed, int(compressedLen))
	if _, err := io.ReadFull(r, rs.compressed); err != nil {
		return 0, 0, nil, decodeErrf(KindTruncated, name, start, "section payload: %v", err)
	}
	if crc := crc32.ChecksumIEEE(rs.compressed); crc != wantCRC {
		return 0, 0, nil, decodeErrf(KindCorrupt, name, start,
			"crc mismatch (got %08x want %08x)", crc, wantCRC)
	}
	rs.payload = grow(rs.payload, int(uncompressedLen))
	if err := rs.inf.inflate(rs.payload, rs.compressed); err != nil {
		return 0, 0, nil, decodeErrf(KindCorrupt, name, start, "inflating: %v", err)
	}
	return sectionType, module, rs.payload, nil
}

// cursor consumes little-endian primitives from a payload, reporting
// malformed input through a sticky *DecodeError carrying the section name
// and its byte offset in the stream.
type cursor struct {
	buf     []byte
	off     int
	err     error
	lim     DecodeLimits
	section string
	base    int64
}

func (c *cursor) fail(kind ErrorKind, format string, args ...any) {
	if c.err == nil {
		c.err = decodeErrf(kind, c.section, c.base, format, args...)
	}
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.buf) {
		c.fail(KindCorrupt, "payload ends at %d, need %d more bytes", c.off, n)
		return false
	}
	return true
}

// boundCount validates a declared element count against both the configured
// cap and the payload bytes actually remaining (minSize bytes per element),
// so a crafted count can neither allocate past the limits nor past what the
// input could possibly hold.
func (c *cursor) boundCount(what string, n, minSize, limit int) int {
	if c.err != nil {
		return 0
	}
	if n > limit {
		c.fail(KindLimitExceeded, "%s count %d exceeds limit %d", what, n, limit)
		return 0
	}
	if remaining := (len(c.buf) - c.off) / minSize; n > remaining {
		c.fail(KindCorrupt, "%s count %d impossible: %d bytes of payload remain",
			what, n, len(c.buf)-c.off)
		return 0
	}
	return n
}

func (c *cursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.buf[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}

func (c *cursor) i64() int64 { return int64(c.u64()) }
func (c *cursor) i32() int32 { return int32(c.u32()) }
func (c *cursor) f64() float64 {
	return math.Float64frombits(c.u64())
}

func (c *cursor) str() string {
	n := int(c.u16())
	if n > c.lim.MaxStringLen {
		c.fail(KindLimitExceeded, "string of %d bytes exceeds limit %d", n, c.lim.MaxStringLen)
		return ""
	}
	if !c.need(n) {
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

// strBytes returns a view of the next string without copying it out of the
// payload. Valid until the payload scratch is reused (i.e. within one
// section's decode).
func (c *cursor) strBytes() []byte {
	n := int(c.u16())
	if n > c.lim.MaxStringLen {
		c.fail(KindLimitExceeded, "string of %d bytes exceeds limit %d", n, c.lim.MaxStringLen)
		return nil
	}
	if !c.need(n) {
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func decodeJob(payload []byte, lim DecodeLimits, base int64, st *logStore) error {
	c := &cursor{buf: payload, lim: lim, section: "job", base: base}
	job := darshan.JobHeader{
		JobID:     c.u64(),
		UserID:    c.u64(),
		NProcs:    int(c.u32()),
		StartTime: c.i64(),
		EndTime:   c.i64(),
		Exe:       c.str(),
	}
	// A metadata pair is at least two empty strings (two u16 lengths).
	n := c.boundCount("metadata pair", int(c.u16()), 4, lim.MaxMetadataPairs)
	if n > 0 {
		if st.meta == nil {
			st.meta = make(map[string]string, n)
		}
		clear(st.meta)
		job.Metadata = st.meta
		for i := 0; i < n; i++ {
			k := c.str()
			v := c.str()
			if c.err != nil {
				break
			}
			job.Metadata[k] = v
		}
	}
	if c.err != nil {
		return c.err
	}
	st.log.Job = job
	return nil
}

func decodeNames(payload []byte, lim DecodeLimits, base int64, st *logStore) error {
	c := &cursor{buf: payload, lim: lim, section: "names", base: base}
	// A name-table entry is at least a record ID plus an empty string.
	n := c.boundCount("name-table entry", int(c.u32()), 10, lim.MaxNames)
	if st.log.Names == nil {
		st.log.Names = make(map[darshan.RecordID]string, n)
	}
	for i := 0; i < n; i++ {
		id := darshan.RecordID(c.u64())
		path := c.str()
		if c.err != nil {
			return c.err
		}
		st.log.Names[id] = path
	}
	return c.err
}

func decodeDXT(payload []byte, lim DecodeLimits, base int64) ([]darshan.DXTTrace, error) {
	c := &cursor{buf: payload, lim: lim, section: "dxt", base: base}
	// A trace is at least module + record + rank + segment count (17 bytes).
	n := c.boundCount("DXT trace", int(c.u32()), 17, lim.MaxDXTTraces)
	traces := make([]darshan.DXTTrace, 0, n)
	for i := 0; i < n; i++ {
		var b [1]byte
		if c.need(1) {
			b[0] = c.buf[c.off]
			c.off++
		}
		tr := darshan.DXTTrace{
			Module: darshan.ModuleID(b[0]),
			Record: darshan.RecordID(c.u64()),
			Rank:   c.i32(),
		}
		// A segment is 33 bytes; the count is bounded by the remaining
		// payload and the configured cap before any allocation.
		nSegs := c.boundCount("DXT segment", int(c.u32()), 33, lim.MaxDXTSegments)
		if c.err != nil {
			return nil, c.err
		}
		tr.Segments = make([]darshan.DXTSegment, 0, nSegs)
		for s := 0; s < nSegs; s++ {
			var kind [1]byte
			if c.need(1) {
				kind[0] = c.buf[c.off]
				c.off++
			}
			tr.Segments = append(tr.Segments, darshan.DXTSegment{
				Kind:   darshan.OpKind(kind[0]),
				Offset: c.i64(),
				Length: c.i64(),
				Start:  c.f64(),
				End:    c.f64(),
			})
		}
		if c.err != nil {
			return nil, c.err
		}
		traces = append(traces, tr)
	}
	return traces, c.err
}

func decodeModule(m darshan.ModuleID, payload []byte, lim DecodeLimits, base int64, st *logStore) error {
	c := &cursor{buf: payload, lim: lim, section: "module", base: base}
	// Build index remaps from the on-disk layout to the current layout.
	// Names absent from the current layout are dropped; current counters
	// absent from the file stay zero. An entirely unknown module keeps the
	// on-disk layout verbatim (identity remap), which preserves
	// self-description for downstream tools. A nil remap means identity —
	// the common case (log written by this revision), detected without
	// materializing a single name string.
	nCounters := int(c.u16())
	counterRemap := decodeNameTable(c, nCounters, darshan.CounterNames(m))
	nFCounters := int(c.u16())
	fcounterRemap := decodeNameTable(c, nFCounters, darshan.FCounterNames(m))
	if c.err != nil {
		return c.err
	}
	width, fwidth := nCounters, nFCounters
	known := darshan.NumCounters(m) > 0
	if known {
		width, fwidth = darshan.NumCounters(m), darshan.NumFCounters(m)
	} else {
		counterRemap, fcounterRemap = nil, nil
	}

	// A record is id + rank plus its counters; bounding the declared record
	// count by the remaining payload stops a crafted count from forcing a
	// giant allocation out of a tiny file.
	recSize := 12 + 8*(nCounters+nFCounters)
	nRecords := c.boundCount("record", int(c.u32()), recSize, lim.MaxRecords)
	if c.err != nil {
		return c.err
	}
	recs := st.records(nRecords, width, fwidth)
	for i := range recs {
		rec := &recs[i]
		rec.Module = m
		rec.Record = darshan.RecordID(c.u64())
		rec.Rank = c.i32()
		// A remapped layout leaves the counters the file lacks at zero.
		if counterRemap != nil {
			clear(rec.Counters)
		}
		if fcounterRemap != nil {
			clear(rec.FCounters)
		}
		for j := 0; j < nCounters; j++ {
			v := c.i64()
			if counterRemap == nil {
				rec.Counters[j] = v
			} else if dst := counterRemap[j]; dst >= 0 {
				rec.Counters[dst] = v
			}
		}
		for j := 0; j < nFCounters; j++ {
			v := c.f64()
			if fcounterRemap == nil {
				rec.FCounters[j] = v
			} else if dst := fcounterRemap[j]; dst >= 0 {
				rec.FCounters[dst] = v
			}
		}
		if c.err != nil {
			return c.err
		}
		st.ptrs = append(st.ptrs, rec)
	}
	return nil
}

// decodeNameTable consumes an n-entry name table and returns the remap
// from on-disk indexes to dst's, or nil when the table matches dst exactly
// (identity). The identity check compares name bytes in place, so the hot
// path allocates nothing; only layout drift pays for strings and a map.
func decodeNameTable(c *cursor, n int, dst []string) []int {
	// A table entry is at least an empty string (one u16 length).
	n = c.boundCount("counter name", n, 2, c.lim.MaxNames)
	start := c.off
	identity := n == len(dst)
	for i := 0; i < n; i++ {
		b := c.strBytes()
		if identity && string(b) != dst[i] {
			identity = false
		}
	}
	if identity || c.err != nil {
		return nil
	}
	c.off = start
	names := make([]string, n)
	for i := range names {
		names[i] = c.str()
	}
	return remapIndexes(names, dst)
}

// remapIndexes returns, for each source index, the destination index with
// the same name, or −1 if the destination layout lacks that name.
func remapIndexes(src, dst []string) []int {
	dstIdx := make(map[string]int, len(dst))
	for i, n := range dst {
		dstIdx[n] = i
	}
	remap := make([]int, len(src))
	for i, n := range src {
		if j, ok := dstIdx[n]; ok {
			remap[i] = j
		} else {
			remap[i] = -1
		}
	}
	return remap
}
