// Package colfmt is the columnar sibling of logfmt: the same campaign
// data, stored per counter instead of per log, so repeated analyses pay
// only for the columns they touch.
//
// A logfmt archive interleaves everything about one log — job header,
// name table, every module's counter records — inside one zlib stream
// per section. Re-rendering a report therefore re-inflates and re-decodes
// the whole campaign even when the query reads two counters. A colfmt
// file stores the campaign as segments of N logs, each segment holding
// one contiguous, lightly-encoded block per column: monotone counters as
// delta/zigzag varints, paths and domains through a per-segment string
// dictionary, float counters raw. Every block carries min/max/count/
// nonzero statistics so a reader can skip whole columns (all zeros) or
// whole segments (predicate outside [min, max]) without decoding them.
//
// The unit of storage is not the raw counter record but the accounting
// row: darshan.Grouper reduces each log to per-file module totals with
// sharedness, per-path POSIX and extended-STDIO access-size bin sums, and
// per-log tuning signals, and the Writer appends those rows to columns.
// They are the same rows analysis.Aggregator.AddLog folds, and FoldBatch
// reads them back (Batch.FileRow and friends) and runs the same fold, so a
// report from a .dgc can differ from one from the logs only if a row was
// encoded wrongly. The open segment a Writer builds and the segment a
// reader decodes are both a Batch; one pair of accessors maps a column id
// to its field for both. Paths stay dictionary-encoded strings, not layer
// indices, so one file serves any system: layer routing runs once per
// dictionary entry at fold time.
//
// Robustness follows logfmt's discipline: every length, count, and size
// field is treated as attacker-controlled, allocations are bounded by
// logfmt.DecodeLimits, and every failure is a structured
// *logfmt.DecodeError. Forward compatibility: a reader skips column IDs
// it does not know (new columns are additive), and rejects unknown
// encodings with a KindBadVersion error — never a panic.
package colfmt

import (
	"fmt"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
)

// Magic identifies a columnar campaign file.
const Magic = "DGCF"

// Version is the current format version.
const Version uint16 = 1

// Column encodings. An encoding byte outside this set fails decoding with
// KindBadVersion — the forward-compat escape hatch for future encodings.
const (
	// encVarint stores each value as an unsigned LEB128 varint of its
	// uint64 bit pattern (IDs, flags, dictionary references).
	encVarint byte = 1
	// encZigzag stores each value as a signed (zigzag) varint.
	encZigzag byte = 2
	// encDelta stores successive differences as signed varints — the
	// monotone-counter encoding (timestamps, row-end offsets).
	encDelta byte = 3
	// encFloat stores each value as a raw little-endian IEEE 754 float64.
	encFloat byte = 4
	// encStrings is the dictionary block: a uvarint entry count followed
	// by uvarint-length-prefixed UTF-8 entries.
	encStrings byte = 5
)

// Column IDs. Stable on disk; new columns append new IDs. A reader
// ignores IDs it does not know.
const (
	colDict byte = 1

	// Per-log columns (one value per log).
	colJobID      byte = 2
	colUserID     byte = 3
	colNProcs     byte = 4
	colStartTime  byte = 5
	colEndTime    byte = 6
	colDomain     byte = 7 // dictionary id of Metadata["domain"]
	colTuneStripe byte = 8 // max Lustre stripe width over the log's records
	colTuneColl   byte = 9
	colTuneIndep  byte = 10
	// Row-end columns: exclusive end index of the log's rows in each row
	// table; row ranges are [prev end, end).
	colFileEnd   byte = 11
	colPosixEnd  byte = 12
	colStdioXEnd byte = 13

	// Per-file accounting rows (one per accounted file per log, in
	// first-appearance order).
	colFileFlags   byte = 20
	colFilePath    byte = 21 // dictionary id
	colPosixReadB  byte = 22
	colPosixWriteB byte = 23
	colMpiioReadB  byte = 24
	colMpiioWriteB byte = 25
	colStdioReadB  byte = 26
	colStdioWriteB byte = 27
	colPosixReadT  byte = 28
	colPosixWriteT byte = 29
	colMpiioReadT  byte = 30
	colMpiioWriteT byte = 31
	colStdioReadT  byte = 32
	colStdioWriteT byte = 33

	// Per-(log, path) POSIX access-size rows: 10 read bins then 10 write
	// bins, one column per bin.
	colPosixHistPath byte = 40
	colPosixBins     byte = 41 // 41..60

	// Per-(log, path) extended-STDIO rows.
	colStdioXPath    byte = 70
	colStdioXBins    byte = 71 // 71..90
	colStdioXRewrite byte = 91
	colStdioXUnique  byte = 92
)

// numBins is the number of bin columns in each access-size table: read
// bins then write bins.
const numBins = darshan.SizeBins

// FileFlags bits (colFileFlags): which module views are present on the
// file row and whether each was a rank −1 shared record.
const (
	FlagPosix       int64 = 1 << 0
	FlagPosixShared int64 = 1 << 1
	FlagMpiio       int64 = 1 << 2
	FlagMpiioShared int64 = 1 << 3
	FlagStdio       int64 = 1 << 4
	FlagStdioShared int64 = 1 << 5
)

// Projection selects column groups to decode; unselected groups stay nil
// in the Batch. Narrow queries decode only what they read.
type Projection uint32

// Column groups.
const (
	// GroupLogs is the per-log table: job identity, time window, domain,
	// tuning signals, and the row-end offsets.
	GroupLogs Projection = 1 << iota
	// GroupFiles is the per-file accounting table's integer half: flags,
	// path, and the six byte counters.
	GroupFiles
	// GroupFileTimes is the per-file busy-time float columns.
	GroupFileTimes
	// GroupPosixHist is the POSIX access-size bin table.
	GroupPosixHist
	// GroupStdioX is the extended-STDIO table.
	GroupStdioX

	// ProjectAll decodes every known column — the full-report fold.
	ProjectAll Projection = GroupLogs | GroupFiles | GroupFileTimes | GroupPosixHist | GroupStdioX
)

// Stats is the per-column statistics block: row count, non-zero value
// count, and value bounds. Min and Max are meaningful for integer-encoded
// columns only (they are stored as zero for float and string columns);
// Nonzero == 0 lets a reader skip the column without decoding it, and
// [Min, Max] lets a predicate skip a whole segment.
type Stats struct {
	Count   uint32
	Nonzero uint32
	Min     int64
	Max     int64
}

// ColumnStats pairs a column's identity with its stats — the pruning
// interface exposed by PeekSegment before any column is decoded.
type ColumnStats struct {
	ID       byte
	Encoding byte
	Stats    Stats
}

// SegmentInfo is a segment's header: table row counts plus per-column
// stats, parsed without decoding any column data.
type SegmentInfo struct {
	NumLogs    int
	FileRows   int
	PosixRows  int
	StdioXRows int
	Columns    []ColumnStats
}

// MaxFileBytes returns the largest value any per-file byte-counter column
// in the segment carries, read from the stats block alone — the predicate
// behind volume-threshold segment pruning: if it is below a query's
// minimum, no file row in the segment can match and the segment need not
// be decoded.
func (si *SegmentInfo) MaxFileBytes() int64 {
	var max int64
	for _, cs := range si.Columns {
		switch cs.ID {
		case colPosixReadB, colPosixWriteB, colMpiioReadB, colMpiioWriteB,
			colStdioReadB, colStdioWriteB:
			if cs.Stats.Max > max {
				max = cs.Stats.Max
			}
		}
	}
	return max
}

// TimeRange returns the [min, max] bounds of the segment's per-log start
// times, read from the stats block alone — the predicate behind
// time-window segment pruning: a query whose window is disjoint from the
// range need not decode the segment. Column stats are computed on the
// raw values before delta encoding, so the bounds are real timestamps.
// ok is false when the segment carries no start-time column.
func (si *SegmentInfo) TimeRange() (min, max int64, ok bool) {
	for _, cs := range si.Columns {
		if cs.ID == colStartTime && cs.Stats.Count > 0 {
			return cs.Stats.Min, cs.Stats.Max, true
		}
	}
	return 0, 0, false
}

// Batch is one decoded segment: plain column slices sized to their
// table's row count. Columns outside the requested Projection — and
// columns whose stats show every value is zero — are nil; readers treat
// nil as all-zeros (the At/FAt accessors do). All integer columns are
// []int64 regardless of their on-disk encoding.
type Batch struct {
	NumLogs    int
	FileRows   int
	PosixRows  int
	StdioXRows int

	// Dict is the segment's string table. Entry 0 is always "".
	Dict []string

	// Per-log columns.
	JobID, UserID, NProcs        []int64
	StartTime, EndTime           []int64
	Domain                       []int64
	TuneStripe                   []int64
	TuneColl, TuneIndep          []int64
	FileEnd, PosixEnd, StdioXEnd []int64

	// Per-file columns.
	FileFlags, FilePath     []int64
	PosixReadB, PosixWriteB []int64
	MpiioReadB, MpiioWriteB []int64
	StdioReadB, StdioWriteB []int64
	PosixReadT, PosixWriteT []float64
	MpiioReadT, MpiioWriteT []float64
	StdioReadT, StdioWriteT []float64

	// POSIX access-size rows: bins 0..9 are reads, 10..19 writes.
	PosixHistPath []int64
	PosixBins     [numBins][]int64

	// Extended-STDIO rows.
	StdioXPath                  []int64
	StdioXBins                  [numBins][]int64
	StdioXRewrite, StdioXUnique []int64

	// ColumnsPruned counts requested columns skipped because their stats
	// said every value is zero — decode work the stats block saved.
	ColumnsPruned int
}

// At reads integer column c at row i, treating a nil (pruned or
// unprojected) column as zeros.
func At(c []int64, i int) int64 {
	if c == nil {
		return 0
	}
	return c[i]
}

// FAt is At for float columns.
func FAt(c []float64, i int) float64 {
	if c == nil {
		return 0
	}
	return c[i]
}

// ints maps an integer column id to the Batch field holding it. Together
// with floats this is the only place the schema's ids meet the struct: the
// writer resets and encodes through it, the reader decodes through it.
func (b *Batch) ints(id byte) *[]int64 {
	switch id {
	case colJobID:
		return &b.JobID
	case colUserID:
		return &b.UserID
	case colNProcs:
		return &b.NProcs
	case colStartTime:
		return &b.StartTime
	case colEndTime:
		return &b.EndTime
	case colDomain:
		return &b.Domain
	case colTuneStripe:
		return &b.TuneStripe
	case colTuneColl:
		return &b.TuneColl
	case colTuneIndep:
		return &b.TuneIndep
	case colFileEnd:
		return &b.FileEnd
	case colPosixEnd:
		return &b.PosixEnd
	case colStdioXEnd:
		return &b.StdioXEnd
	case colFileFlags:
		return &b.FileFlags
	case colFilePath:
		return &b.FilePath
	case colPosixReadB:
		return &b.PosixReadB
	case colPosixWriteB:
		return &b.PosixWriteB
	case colMpiioReadB:
		return &b.MpiioReadB
	case colMpiioWriteB:
		return &b.MpiioWriteB
	case colStdioReadB:
		return &b.StdioReadB
	case colStdioWriteB:
		return &b.StdioWriteB
	case colPosixHistPath:
		return &b.PosixHistPath
	case colStdioXPath:
		return &b.StdioXPath
	case colStdioXRewrite:
		return &b.StdioXRewrite
	case colStdioXUnique:
		return &b.StdioXUnique
	}
	switch {
	case id >= colPosixBins && id < colPosixBins+numBins:
		return &b.PosixBins[id-colPosixBins]
	case id >= colStdioXBins && id < colStdioXBins+numBins:
		return &b.StdioXBins[id-colStdioXBins]
	}
	panic(fmt.Sprintf("colfmt: no integer column with id %d", id))
}

// floats is ints for the float columns.
func (b *Batch) floats(id byte) *[]float64 {
	switch id {
	case colPosixReadT:
		return &b.PosixReadT
	case colPosixWriteT:
		return &b.PosixWriteT
	case colMpiioReadT:
		return &b.MpiioReadT
	case colMpiioWriteT:
		return &b.MpiioWriteT
	case colStdioReadT:
		return &b.StdioReadT
	case colStdioWriteT:
		return &b.StdioWriteT
	}
	panic(fmt.Sprintf("colfmt: no float column with id %d", id))
}

// rows returns a table's row count.
func (b *Batch) rows(t tableKind) int {
	switch t {
	case tblDict:
		return len(b.Dict)
	case tblLogs:
		return b.NumLogs
	case tblFiles:
		return b.FileRows
	case tblPosix:
		return b.PosixRows
	default:
		return b.StdioXRows
	}
}

// modFlags encodes one module's presence and sharedness as FileFlags bits.
func modFlags(m *darshan.ModRow, present, shared int64) int64 {
	switch {
	case !m.Present:
		return 0
	case m.Shared:
		return present | shared
	default:
		return present
	}
}

// modRow is the inverse of modFlags plus the module's four totals. A module
// whose presence bit is clear reads back as the zero row whatever its
// columns hold, as the writer stores zeros there.
func modRow(flags, present, shared, readB, writeB int64, readT, writeT float64) darshan.ModRow {
	if flags&present == 0 {
		return darshan.ModRow{}
	}
	return darshan.ModRow{Present: true, Shared: flags&shared != 0,
		ReadB: readB, WriteB: writeB, ReadT: readT, WriteT: writeT}
}

// FileRow reads file row r back as the row the writer was handed. Columns
// outside the decoded projection read as zero.
func (b *Batch) FileRow(r int) darshan.FileRow {
	flags := At(b.FileFlags, r)
	return darshan.FileRow{
		Path: b.Dict[At(b.FilePath, r)],
		Posix: modRow(flags, FlagPosix, FlagPosixShared,
			At(b.PosixReadB, r), At(b.PosixWriteB, r), FAt(b.PosixReadT, r), FAt(b.PosixWriteT, r)),
		Mpiio: modRow(flags, FlagMpiio, FlagMpiioShared,
			At(b.MpiioReadB, r), At(b.MpiioWriteB, r), FAt(b.MpiioReadT, r), FAt(b.MpiioWriteT, r)),
		Stdio: modRow(flags, FlagStdio, FlagStdioShared,
			At(b.StdioReadB, r), At(b.StdioWriteB, r), FAt(b.StdioReadT, r), FAt(b.StdioWriteT, r)),
	}
}

// PosixSizeRow reads POSIX access-size row r back.
func (b *Batch) PosixSizeRow(r int) darshan.SizeRow {
	return sizeRow(b.Dict[At(b.PosixHistPath, r)], &b.PosixBins, r)
}

// StdioXSizeRow reads extended-STDIO row r back.
func (b *Batch) StdioXSizeRow(r int) darshan.SizeRow {
	s := sizeRow(b.Dict[At(b.StdioXPath, r)], &b.StdioXBins, r)
	s.Rewrite, s.Unique = At(b.StdioXRewrite, r), At(b.StdioXUnique, r)
	return s
}

func sizeRow(path string, bins *[numBins][]int64, r int) darshan.SizeRow {
	s := darshan.SizeRow{Path: path}
	for i := range s.Bins {
		s.Bins[i] = At(bins[i], r)
	}
	return s
}

// colSpec describes one schema column: its table, projection group,
// on-disk encoding, and value kind.
type colSpec struct {
	id    byte
	tbl   tableKind
	group Projection
	enc   byte
	float bool
}

type tableKind uint8

const (
	tblDict tableKind = iota
	tblLogs
	tblFiles
	tblPosix
	tblStdioX
)

// specs is the v1 schema in on-disk column order.
var specs = buildSpecs()

func buildSpecs() []colSpec {
	s := []colSpec{
		{colDict, tblDict, 0, encStrings, false}, // always decoded

		{colJobID, tblLogs, GroupLogs, encVarint, false},
		{colUserID, tblLogs, GroupLogs, encVarint, false},
		{colNProcs, tblLogs, GroupLogs, encZigzag, false},
		{colStartTime, tblLogs, GroupLogs, encDelta, false},
		{colEndTime, tblLogs, GroupLogs, encDelta, false},
		{colDomain, tblLogs, GroupLogs, encVarint, false},
		{colTuneStripe, tblLogs, GroupLogs, encZigzag, false},
		{colTuneColl, tblLogs, GroupLogs, encZigzag, false},
		{colTuneIndep, tblLogs, GroupLogs, encZigzag, false},
		{colFileEnd, tblLogs, GroupLogs, encDelta, false},
		{colPosixEnd, tblLogs, GroupLogs, encDelta, false},
		{colStdioXEnd, tblLogs, GroupLogs, encDelta, false},

		{colFileFlags, tblFiles, GroupFiles, encVarint, false},
		{colFilePath, tblFiles, GroupFiles, encVarint, false},
		{colPosixReadB, tblFiles, GroupFiles, encZigzag, false},
		{colPosixWriteB, tblFiles, GroupFiles, encZigzag, false},
		{colMpiioReadB, tblFiles, GroupFiles, encZigzag, false},
		{colMpiioWriteB, tblFiles, GroupFiles, encZigzag, false},
		{colStdioReadB, tblFiles, GroupFiles, encZigzag, false},
		{colStdioWriteB, tblFiles, GroupFiles, encZigzag, false},
		{colPosixReadT, tblFiles, GroupFileTimes, encFloat, true},
		{colPosixWriteT, tblFiles, GroupFileTimes, encFloat, true},
		{colMpiioReadT, tblFiles, GroupFileTimes, encFloat, true},
		{colMpiioWriteT, tblFiles, GroupFileTimes, encFloat, true},
		{colStdioReadT, tblFiles, GroupFileTimes, encFloat, true},
		{colStdioWriteT, tblFiles, GroupFileTimes, encFloat, true},

		{colPosixHistPath, tblPosix, GroupPosixHist, encVarint, false},
	}
	for b := byte(0); b < numBins; b++ {
		s = append(s, colSpec{colPosixBins + b, tblPosix, GroupPosixHist, encZigzag, false})
	}
	s = append(s, colSpec{colStdioXPath, tblStdioX, GroupStdioX, encVarint, false})
	for b := byte(0); b < numBins; b++ {
		s = append(s, colSpec{colStdioXBins + b, tblStdioX, GroupStdioX, encZigzag, false})
	}
	s = append(s,
		colSpec{colStdioXRewrite, tblStdioX, GroupStdioX, encZigzag, false},
		colSpec{colStdioXUnique, tblStdioX, GroupStdioX, encZigzag, false},
	)
	return s
}

// specByID resolves known column IDs; ok=false for foreign IDs (skipped
// for forward compatibility).
var specByID = func() map[byte]colSpec {
	m := make(map[byte]colSpec, len(specs))
	for _, s := range specs {
		m[s.id] = s
	}
	return m
}()

// sanitized fills the DecodeLimits fields colfmt consults from the
// logfmt defaults, mirroring logfmt's own zero-means-default rule.
func sanitized(l logfmt.DecodeLimits) logfmt.DecodeLimits {
	d := logfmt.DefaultLimits()
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	if l.MaxNames <= 0 {
		l.MaxNames = d.MaxNames
	}
	if l.MaxStringLen <= 0 {
		l.MaxStringLen = d.MaxStringLen
	}
	if l.MaxArchiveEntry <= 0 {
		l.MaxArchiveEntry = d.MaxArchiveEntry
	}
	return l
}
