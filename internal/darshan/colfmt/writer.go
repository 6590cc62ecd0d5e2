package colfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"iolayers/internal/darshan"
)

// DefaultSegmentLogs is how many logs one segment spans when the caller
// does not choose: large enough to amortize per-segment framing and give
// the stats block real pruning power, small enough that a worker's
// decoded Batch stays modest.
const DefaultSegmentLogs = 256

// Writer streams logs into a columnar campaign file. Append extracts one
// log's accounting rows into the open segment; every SegmentLogs logs the
// segment's columns are encoded and framed out. Close flushes the final
// partial segment and writes the terminator. Writer is not safe for
// concurrent use.
type Writer struct {
	w        io.Writer
	err      error // sticky
	count    int   // logs appended over the file's lifetime
	segments int
	segLogs  int

	// seg is the open segment — the Batch a reader will decode it to — and
	// dictIdx the index of seg.Dict. Both are reused across segments, and
	// with the grouper's tables that makes Append allocation-free
	// steady-state.
	seg     Batch
	dictIdx map[string]int64
	grouper darshan.Grouper
}

// reset empties the open segment, keeping every column's capacity.
func (w *Writer) reset() {
	b := &w.seg
	b.NumLogs, b.FileRows, b.PosixRows, b.StdioXRows = 0, 0, 0, 0
	b.Dict = append(b.Dict[:0], "")
	clear(w.dictIdx)
	w.dictIdx[""] = 0
	for _, spec := range specs {
		switch {
		case spec.tbl == tblDict: // reset above
		case spec.float:
			c := b.floats(spec.id)
			*c = (*c)[:0]
		default:
			c := b.ints(spec.id)
			*c = (*c)[:0]
		}
	}
}

// dictID interns a string into the segment dictionary.
func (w *Writer) dictID(str string) int64 {
	if id, ok := w.dictIdx[str]; ok {
		return id
	}
	id := int64(len(w.seg.Dict))
	w.seg.Dict = append(w.seg.Dict, str)
	w.dictIdx[str] = id
	return id
}

// NewWriter starts a columnar file on w: the header is written
// immediately. segmentLogs ≤ 0 takes DefaultSegmentLogs.
func NewWriter(w io.Writer, segmentLogs int) (*Writer, error) {
	if segmentLogs <= 0 {
		segmentLogs = DefaultSegmentLogs
	}
	cw := &Writer{w: w, segLogs: segmentLogs, dictIdx: map[string]int64{}}
	cw.reset()
	var hdr [6]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("colfmt: writing header: %w", err)
	}
	return cw, nil
}

// Count returns the number of logs appended so far.
func (w *Writer) Count() int { return w.count }

// Segments returns the number of segments flushed so far.
func (w *Writer) Segments() int { return w.segments }

// Append extracts one log into the open segment, flushing the segment
// when it reaches the configured log count.
func (w *Writer) Append(log *darshan.Log) error {
	if w.err != nil {
		return w.err
	}
	w.extract(log)
	w.count++
	if w.seg.NumLogs >= w.segLogs {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// extract appends one log's accounting rows to the open segment's columns.
func (w *Writer) extract(log *darshan.Log) {
	rows := w.grouper.Group(log)
	b := &w.seg

	for i := range rows.Files {
		f := &rows.Files[i]
		b.FileFlags = append(b.FileFlags, modFlags(&f.Posix, FlagPosix, FlagPosixShared)|
			modFlags(&f.Mpiio, FlagMpiio, FlagMpiioShared)|modFlags(&f.Stdio, FlagStdio, FlagStdioShared))
		b.FilePath = append(b.FilePath, w.dictID(f.Path))
		b.PosixReadB = append(b.PosixReadB, f.Posix.ReadB)
		b.PosixWriteB = append(b.PosixWriteB, f.Posix.WriteB)
		b.MpiioReadB = append(b.MpiioReadB, f.Mpiio.ReadB)
		b.MpiioWriteB = append(b.MpiioWriteB, f.Mpiio.WriteB)
		b.StdioReadB = append(b.StdioReadB, f.Stdio.ReadB)
		b.StdioWriteB = append(b.StdioWriteB, f.Stdio.WriteB)
		b.PosixReadT = append(b.PosixReadT, f.Posix.ReadT)
		b.PosixWriteT = append(b.PosixWriteT, f.Posix.WriteT)
		b.MpiioReadT = append(b.MpiioReadT, f.Mpiio.ReadT)
		b.MpiioWriteT = append(b.MpiioWriteT, f.Mpiio.WriteT)
		b.StdioReadT = append(b.StdioReadT, f.Stdio.ReadT)
		b.StdioWriteT = append(b.StdioWriteT, f.Stdio.WriteT)
	}
	b.FileRows += len(rows.Files)

	for i := range rows.Posix {
		s := &rows.Posix[i]
		b.PosixHistPath = append(b.PosixHistPath, w.dictID(s.Path))
		for bin := range s.Bins {
			b.PosixBins[bin] = append(b.PosixBins[bin], s.Bins[bin])
		}
	}
	b.PosixRows += len(rows.Posix)

	for i := range rows.StdioX {
		s := &rows.StdioX[i]
		b.StdioXPath = append(b.StdioXPath, w.dictID(s.Path))
		for bin := range s.Bins {
			b.StdioXBins[bin] = append(b.StdioXBins[bin], s.Bins[bin])
		}
		b.StdioXRewrite = append(b.StdioXRewrite, s.Rewrite)
		b.StdioXUnique = append(b.StdioXUnique, s.Unique)
	}
	b.StdioXRows += len(rows.StdioX)

	// The per-log row last: its row-end offsets cover everything above.
	b.JobID = append(b.JobID, int64(rows.Job.JobID))
	b.UserID = append(b.UserID, int64(rows.Job.UserID))
	b.NProcs = append(b.NProcs, int64(rows.Job.NProcs))
	b.StartTime = append(b.StartTime, rows.Job.StartTime)
	b.EndTime = append(b.EndTime, rows.Job.EndTime)
	b.Domain = append(b.Domain, w.dictID(rows.Domain))
	b.TuneStripe = append(b.TuneStripe, rows.TuneStripe)
	b.TuneColl = append(b.TuneColl, rows.TuneColl)
	b.TuneIndep = append(b.TuneIndep, rows.TuneIndep)
	b.FileEnd = append(b.FileEnd, int64(b.FileRows))
	b.PosixEnd = append(b.PosixEnd, int64(b.PosixRows))
	b.StdioXEnd = append(b.StdioXEnd, int64(b.StdioXRows))
	b.NumLogs++
}

// Flush encodes and frames out the open segment, if it holds any logs.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.seg.NumLogs == 0 {
		return nil
	}
	if err := w.writeSegment(); err != nil {
		w.err = err
		return err
	}
	w.segments++
	w.reset()
	return nil
}

// Close flushes the final segment and writes the zero terminator. The
// underlying writer is the caller's to close.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		return err
	}
	var term [4]byte
	if _, err := w.w.Write(term[:]); err != nil {
		w.err = fmt.Errorf("colfmt: writing terminator: %w", err)
		return w.err
	}
	w.err = fmt.Errorf("colfmt: writer closed")
	return nil
}

// colHeaderSize is the fixed per-column header: id, encoding, offset,
// length, and the stats block.
const colHeaderSize = 1 + 1 + 4 + 4 + 4 + 4 + 8 + 8

// writeSegment encodes every non-empty table's columns and writes one
// framed segment: u32 payload length, u32 CRC-32 (IEEE) of the payload,
// payload. Empty tables contribute no columns at all; all-zero columns in
// non-empty tables are written (a run of varint zeros is near-free) so
// readers exercise stats-based pruning instead of special-casing absence.
func (w *Writer) writeSegment() error {
	s := &w.seg
	body := getBuf()
	defer putBuf(body)

	type colOut struct {
		spec     colSpec
		off, len int
		st       Stats
	}
	cols := make([]colOut, 0, len(specs))
	for _, spec := range specs {
		if s.rows(spec.tbl) == 0 { // the dictionary always holds ""
			continue
		}
		off := body.Len()
		var st Stats
		switch {
		case spec.tbl == tblDict:
			st = encodeStrings(body, s.Dict)
		case spec.float:
			st = encodeFloats(body, *s.floats(spec.id))
		default:
			st = encodeInts(body, *s.ints(spec.id), spec.enc)
		}
		cols = append(cols, colOut{spec: spec, off: off, len: body.Len() - off, st: st})
	}

	hdr := getBuf()
	defer putBuf(hdr)
	putU32(hdr, uint32(s.NumLogs))
	putU32(hdr, uint32(s.FileRows))
	putU32(hdr, uint32(s.PosixRows))
	putU32(hdr, uint32(s.StdioXRows))
	putU16(hdr, uint16(len(cols)))
	for _, c := range cols {
		hdr.WriteByte(c.spec.id)
		hdr.WriteByte(c.spec.enc)
		putU32(hdr, uint32(c.off))
		putU32(hdr, uint32(c.len))
		putU32(hdr, c.st.Count)
		putU32(hdr, c.st.Nonzero)
		putU64(hdr, uint64(c.st.Min))
		putU64(hdr, uint64(c.st.Max))
	}

	crc := crc32.ChecksumIEEE(hdr.Bytes())
	crc = crc32.Update(crc, crc32.IEEETable, body.Bytes())
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(hdr.Len()+body.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc)
	if _, err := w.w.Write(frame[:]); err != nil {
		return fmt.Errorf("colfmt: writing segment frame: %w", err)
	}
	if _, err := w.w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("colfmt: writing segment header: %w", err)
	}
	if _, err := w.w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("colfmt: writing segment body: %w", err)
	}
	return nil
}

func putU16(b *bytes.Buffer, v uint16) {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	b.Write(t[:])
}

func putU32(b *bytes.Buffer, v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.Write(t[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	b.Write(t[:])
}

// encodeInts appends vals under enc and returns the column stats.
func encodeInts(dst *bytes.Buffer, vals []int64, enc byte) Stats {
	st := intStats(vals)
	var tmp [binary.MaxVarintLen64]byte
	switch enc {
	case encVarint:
		for _, v := range vals {
			dst.Write(tmp[:binary.PutUvarint(tmp[:], uint64(v))])
		}
	case encZigzag:
		for _, v := range vals {
			dst.Write(tmp[:binary.PutVarint(tmp[:], v)])
		}
	case encDelta:
		prev := int64(0)
		for _, v := range vals {
			dst.Write(tmp[:binary.PutVarint(tmp[:], v-prev)])
			prev = v
		}
	default:
		panic(fmt.Sprintf("colfmt: encoding %d is not an integer encoding", enc))
	}
	return st
}

func intStats(vals []int64) Stats {
	st := Stats{Count: uint32(len(vals))}
	for i, v := range vals {
		if v != 0 {
			st.Nonzero++
		}
		if i == 0 || v < st.Min {
			st.Min = v
		}
		if i == 0 || v > st.Max {
			st.Max = v
		}
	}
	return st
}

// encodeFloats appends vals raw. Min/Max stay zero: they are defined for
// integer columns only.
func encodeFloats(dst *bytes.Buffer, vals []float64) Stats {
	st := Stats{Count: uint32(len(vals))}
	for _, v := range vals {
		if v != 0 {
			st.Nonzero++
		}
		putU64(dst, math.Float64bits(v))
	}
	return st
}

// encodeStrings appends the dictionary block.
func encodeStrings(dst *bytes.Buffer, strs []string) Stats {
	st := Stats{Count: uint32(len(strs))}
	var tmp [binary.MaxVarintLen64]byte
	dst.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(strs)))])
	for _, s := range strs {
		if s != "" {
			st.Nonzero++
		}
		dst.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
		dst.WriteString(s)
	}
	return st
}
