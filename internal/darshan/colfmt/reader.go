package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"iolayers/internal/darshan/logfmt"
)

// decErrf builds a structured *logfmt.DecodeError — colfmt reuses
// logfmt's error taxonomy so corrupt-input handling is uniform across
// both formats. Sections are prefixed "colfmt-" to keep the two formats'
// failures distinguishable in quarantine manifests and metrics.
func decErrf(kind logfmt.ErrorKind, section string, offset int64, format string, args ...any) error {
	return &logfmt.DecodeError{Kind: kind, Section: section, Offset: offset,
		Detail: fmt.Sprintf(format, args...)}
}

// Reader walks a columnar file segment by segment. NextRaw performs only
// the cheap framing work — length, CRC — and hands back the undecoded
// payload, so a dispatcher can stream segments to parallel workers that
// pay for DecodeSegment themselves (the same hand-off shape as
// logfmt.ArchiveReader.NextRaw).
type Reader struct {
	r    io.Reader
	lim  logfmt.DecodeLimits
	off  int64 // input offset of the next frame
	buf  []byte
	done bool
}

// NewReader validates the file header and positions the reader at the
// first segment, under default limits.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderWithLimits(r, logfmt.DecodeLimits{})
}

// NewReaderWithLimits is NewReader with explicit decode limits; zero
// fields take the logfmt defaults.
func NewReaderWithLimits(r io.Reader, lim logfmt.DecodeLimits) (*Reader, error) {
	cr := &Reader{r: r, lim: sanitized(lim)}
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, decErrf(logfmt.KindTruncated, "colfmt-header", 0, "reading file header: %v", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, decErrf(logfmt.KindBadMagic, "colfmt-header", 0, "magic %q, want %q", hdr[:4], Magic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return nil, decErrf(logfmt.KindBadVersion, "colfmt-header", 4, "version %d, want %d", v, Version)
	}
	cr.off = 6
	return cr, nil
}

// InputOffset returns the byte offset of the next segment frame.
func (r *Reader) InputOffset() int64 { return r.off }

// NextRaw returns the next segment's payload, CRC-verified but not
// decoded. io.EOF signals the terminator was reached cleanly. The slice
// is the reader's scratch: valid only until the next call, so hand-offs
// must copy.
func (r *Reader) NextRaw() ([]byte, error) {
	if r.done {
		return nil, io.EOF
	}
	frameOff := r.off
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		return nil, decErrf(logfmt.KindTruncated, "colfmt-frame", frameOff,
			"reading segment length: %v", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 {
		r.done = true
		return nil, io.EOF
	}
	if int64(n) > int64(r.lim.MaxArchiveEntry) {
		return nil, decErrf(logfmt.KindLimitExceeded, "colfmt-frame", frameOff,
			"segment of %d bytes exceeds limit %d", n, r.lim.MaxArchiveEntry)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.r, crcBuf[:]); err != nil {
		return nil, decErrf(logfmt.KindTruncated, "colfmt-frame", frameOff,
			"reading segment checksum: %v", err)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, decErrf(logfmt.KindTruncated, "colfmt-frame", frameOff,
			"segment claims %d bytes: %v", n, err)
	}
	if got, want := crc32.ChecksumIEEE(r.buf), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-frame", frameOff,
			"segment checksum 0x%08x, want 0x%08x", got, want)
	}
	r.off += 8 + int64(n)
	return r.buf, nil
}

// segHeaderFixed is the fixed prefix of a segment payload: four table row
// counts and the column count.
const segHeaderFixed = 4*4 + 2

// colRange is a column's byte range within the segment body, parallel to
// SegmentInfo.Columns.
type colRange struct{ off, len int }

// parseHeader validates a payload's header and returns the info, the
// body offset within the payload, and each column's body range.
func parseHeader(raw []byte, lim logfmt.DecodeLimits) (*SegmentInfo, int, []colRange, error) {
	if len(raw) < segHeaderFixed {
		return nil, 0, nil, decErrf(logfmt.KindTruncated, "colfmt-segment", -1,
			"payload of %d bytes is smaller than the %d-byte header", len(raw), segHeaderFixed)
	}
	info := &SegmentInfo{
		NumLogs:    int(binary.LittleEndian.Uint32(raw[0:])),
		FileRows:   int(binary.LittleEndian.Uint32(raw[4:])),
		PosixRows:  int(binary.LittleEndian.Uint32(raw[8:])),
		StdioXRows: int(binary.LittleEndian.Uint32(raw[12:])),
	}
	for _, c := range [...]struct {
		name string
		n    int
	}{
		{"log", info.NumLogs}, {"file", info.FileRows},
		{"posix-bin", info.PosixRows}, {"stdiox", info.StdioXRows},
	} {
		if c.n > lim.MaxRecords {
			return nil, 0, nil, decErrf(logfmt.KindLimitExceeded, "colfmt-segment", -1,
				"%d %s rows exceed limit %d", c.n, c.name, lim.MaxRecords)
		}
	}
	nCols := int(binary.LittleEndian.Uint16(raw[16:]))
	hdrLen := segHeaderFixed + nCols*colHeaderSize
	if hdrLen > len(raw) {
		return nil, 0, nil, decErrf(logfmt.KindTruncated, "colfmt-segment", -1,
			"%d column headers need %d bytes, payload has %d", nCols, hdrLen, len(raw))
	}
	body := len(raw) - hdrLen
	info.Columns = make([]ColumnStats, nCols)
	ranges := make([]colRange, nCols)
	for i := 0; i < nCols; i++ {
		h := raw[segHeaderFixed+i*colHeaderSize:]
		cs := ColumnStats{
			ID:       h[0],
			Encoding: h[1],
			Stats: Stats{
				Count:   binary.LittleEndian.Uint32(h[10:]),
				Nonzero: binary.LittleEndian.Uint32(h[14:]),
				Min:     int64(binary.LittleEndian.Uint64(h[18:])),
				Max:     int64(binary.LittleEndian.Uint64(h[26:])),
			},
		}
		off := int(binary.LittleEndian.Uint32(h[2:]))
		length := int(binary.LittleEndian.Uint32(h[6:]))
		if off > body || length > body-off {
			return nil, 0, nil, decErrf(logfmt.KindCorrupt, "colfmt-segment", -1,
				"column %d spans [%d, %d) of a %d-byte body", cs.ID, off, off+length, body)
		}
		info.Columns[i] = cs
		ranges[i] = colRange{off: off, len: length}
	}
	return info, hdrLen, ranges, nil
}

// PeekSegment parses a segment payload's header — row counts and
// per-column stats — without decoding any column. This is the predicate-
// pruning interface: a scan consults the stats and skips DecodeSegment
// entirely when no row can match.
func PeekSegment(raw []byte, lim logfmt.DecodeLimits) (*SegmentInfo, error) {
	info, _, _, err := parseHeader(raw, sanitized(lim))
	return info, err
}

// DecodeSegment decodes one segment payload into a Batch, materializing
// only the columns proj selects. Requested integer and float columns
// whose stats show all zeros are skipped (left nil, counted in
// ColumnsPruned). Unknown column IDs are ignored for forward
// compatibility; unknown encodings on a decoded column are a
// KindBadVersion error, never a panic.
func DecodeSegment(raw []byte, proj Projection, lim logfmt.DecodeLimits) (*Batch, error) {
	lim = sanitized(lim)
	info, hdrLen, ranges, err := parseHeader(raw, lim)
	if err != nil {
		return nil, err
	}
	b := &Batch{
		NumLogs:    info.NumLogs,
		FileRows:   info.FileRows,
		PosixRows:  info.PosixRows,
		StdioXRows: info.StdioXRows,
	}
	body := raw[hdrLen:]
	for i, cs := range info.Columns {
		spec, known := specByID[cs.ID]
		if !known {
			continue // future column: additive, safe to skip
		}
		if spec.tbl != tblDict && proj&spec.group == 0 {
			continue
		}
		rows := b.rows(spec.tbl)
		if spec.tbl != tblDict && int(cs.Stats.Count) != rows {
			return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
				"column %d holds %d values, table has %d rows", cs.ID, cs.Stats.Count, rows)
		}
		data := body[ranges[i].off : ranges[i].off+ranges[i].len]

		if spec.tbl == tblDict {
			dict, err := decodeStrings(data, lim)
			if err != nil {
				return nil, err
			}
			b.Dict = dict
			continue
		}
		if cs.Stats.Nonzero == 0 {
			b.ColumnsPruned++
			continue
		}
		if spec.float {
			if cs.Encoding != encFloat {
				return nil, decErrf(logfmt.KindBadVersion, "colfmt-column", -1,
					"column %d uses unknown encoding %d", cs.ID, cs.Encoding)
			}
			vals, err := decodeFloats(data, int(cs.Stats.Count), cs.ID)
			if err != nil {
				return nil, err
			}
			*b.floats(cs.ID) = vals
		} else {
			vals, err := decodeInts(data, int(cs.Stats.Count), cs.Encoding, cs.ID)
			if err != nil {
				return nil, err
			}
			*b.ints(cs.ID) = vals
		}
	}
	if b.Dict == nil {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-segment", -1, "segment has no dictionary column")
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// validate enforces the structural invariants a fold relies on, so a
// crafted segment cannot push FoldBatch out of bounds: dictionary
// references resolve, row-end columns are monotone and land exactly on
// their table's row count.
func (b *Batch) validate() error {
	maxDict := int64(len(b.Dict))
	checkDict := func(col []int64, name string) error {
		for _, id := range col {
			if id < 0 || id >= maxDict {
				return decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"%s references dictionary entry %d of %d", name, id, maxDict)
			}
		}
		return nil
	}
	if err := checkDict(b.Domain, "domain column"); err != nil {
		return err
	}
	if err := checkDict(b.FilePath, "file path column"); err != nil {
		return err
	}
	if err := checkDict(b.PosixHistPath, "posix-bin path column"); err != nil {
		return err
	}
	if err := checkDict(b.StdioXPath, "stdiox path column"); err != nil {
		return err
	}
	checkEnds := func(ends []int64, rows int, name string) error {
		if ends == nil {
			// Pruned to nil means every end is zero — consistent only
			// with an empty table.
			if rows != 0 && b.NumLogs > 0 {
				return decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"%s is all-zero but table has %d rows", name, rows)
			}
			return nil
		}
		prev := int64(0)
		for _, e := range ends {
			if e < prev || e > int64(rows) {
				return decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"%s not monotone within table of %d rows", name, rows)
			}
			prev = e
		}
		if prev != int64(rows) {
			return decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
				"%s covers %d of %d rows", name, prev, rows)
		}
		return nil
	}
	// Row-end checks only apply when the log table was decoded; narrow
	// scans that skip GroupLogs iterate rows flat and never use ends.
	if b.FileEnd != nil || b.PosixEnd != nil || b.StdioXEnd != nil || b.JobID != nil || b.StartTime != nil {
		if err := checkEnds(b.FileEnd, b.FileRows, "file row ends"); err != nil {
			return err
		}
		if err := checkEnds(b.PosixEnd, b.PosixRows, "posix-bin row ends"); err != nil {
			return err
		}
		if err := checkEnds(b.StdioXEnd, b.StdioXRows, "stdiox row ends"); err != nil {
			return err
		}
	}
	return nil
}

// decodeInts decodes count varint-family values. The one-byte-per-value
// floor rejects impossible claims before the result is allocated —
// logfmt's boundCount discipline.
func decodeInts(src []byte, count int, enc byte, id byte) ([]int64, error) {
	if len(src) < count {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
			"column %d claims %d values in %d bytes", id, count, len(src))
	}
	out := make([]int64, count)
	off := 0
	switch enc {
	case encVarint:
		for i := range out {
			v, n := binary.Uvarint(src[off:])
			if n <= 0 {
				return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"column %d: bad varint at value %d", id, i)
			}
			out[i] = int64(v)
			off += n
		}
	case encZigzag:
		for i := range out {
			v, n := binary.Varint(src[off:])
			if n <= 0 {
				return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"column %d: bad varint at value %d", id, i)
			}
			out[i] = v
			off += n
		}
	case encDelta:
		prev := int64(0)
		for i := range out {
			d, n := binary.Varint(src[off:])
			if n <= 0 {
				return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
					"column %d: bad varint at value %d", id, i)
			}
			prev += d
			out[i] = prev
			off += n
		}
	default:
		return nil, decErrf(logfmt.KindBadVersion, "colfmt-column", -1,
			"column %d uses unknown encoding %d", id, enc)
	}
	if off != len(src) {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
			"column %d: %d trailing bytes", id, len(src)-off)
	}
	return out, nil
}

func decodeFloats(src []byte, count int, id byte) ([]float64, error) {
	if len(src) != count*8 {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-column", -1,
			"column %d claims %d floats in %d bytes", id, count, len(src))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out, nil
}

func decodeStrings(src []byte, lim logfmt.DecodeLimits) ([]string, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-dictionary", -1, "bad entry count")
	}
	if count > uint64(lim.MaxNames) {
		return nil, decErrf(logfmt.KindLimitExceeded, "colfmt-dictionary", -1,
			"%d entries exceed limit %d", count, lim.MaxNames)
	}
	if count > uint64(len(src)) { // ≥1 byte per entry (its length prefix)
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-dictionary", -1,
			"%d entries claimed in %d bytes", count, len(src))
	}
	off := n
	out := make([]string, count)
	for i := range out {
		l, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return nil, decErrf(logfmt.KindCorrupt, "colfmt-dictionary", -1,
				"bad length prefix at entry %d", i)
		}
		off += n
		if l > uint64(lim.MaxStringLen) {
			return nil, decErrf(logfmt.KindLimitExceeded, "colfmt-dictionary", -1,
				"entry %d of %d bytes exceeds limit %d", i, l, lim.MaxStringLen)
		}
		if l > uint64(len(src)-off) {
			return nil, decErrf(logfmt.KindTruncated, "colfmt-dictionary", -1,
				"entry %d of %d bytes overruns the block", i, l)
		}
		out[i] = string(src[off : off+int(l)])
		off += int(l)
	}
	if off != len(src) {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-dictionary", -1,
			"%d trailing bytes", len(src)-off)
	}
	if len(out) == 0 || out[0] != "" {
		return nil, decErrf(logfmt.KindCorrupt, "colfmt-dictionary", -1,
			"entry 0 must be the empty string")
	}
	return out, nil
}

// ScanFile walks every segment of the file at path sequentially, decoding
// under proj and calling fn with each batch. A non-nil error from fn ends
// the scan and is returned as is, so a caller stops early by returning a
// sentinel of its own.
func ScanFile(path string, proj Projection, lim logfmt.DecodeLimits, fn func(seg int, b *Batch) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := NewReaderWithLimits(f, lim)
	if err != nil {
		return err
	}
	for seg := 0; ; seg++ {
		raw, err := r.NextRaw()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		b, err := DecodeSegment(raw, proj, lim)
		if err != nil {
			return err
		}
		if err := fn(seg, b); err != nil {
			return err
		}
	}
}
