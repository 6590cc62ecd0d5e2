package darshan

import "iolayers/internal/units"

// The accounting rows: what every analysis of a log reads, grouped once.
// analysis folds them into reports and colfmt stores them as columns, so
// the two can only disagree about how a row is encoded — never about which
// records make up a file.

// ModRow is one log's view of one file through one interface module, with
// the per-rank records folded down to the quantities the accounting rules
// consume.
type ModRow struct {
	Present bool // the module recorded the file at all
	// Shared marks a file the module saw as exactly one rank −1 record
	// (§3.4). Partial-rank records folded together are not a shared record.
	Shared        bool
	ReadB, WriteB int64
	ReadT, WriteT float64 // busy seconds
}

func (m *ModRow) add(rec *FileRecord, cRead, cWrite, fRead, fWrite int) {
	m.Shared = !m.Present && rec.Rank == SharedRank
	m.Present = true
	m.ReadB += rec.Counters[cRead]
	m.WriteB += rec.Counters[cWrite]
	m.ReadT += rec.FCounters[fRead]
	m.WriteT += rec.FCounters[fWrite]
}

// FileRow is one accounted file of one log.
type FileRow struct {
	Path                string
	Posix, Mpiio, Stdio ModRow
}

// Accounted picks the module whose totals count as the file's transfer
// (§3.1): POSIX when present, since MPI-IO issues POSIX calls underneath and
// counting both would double the bytes; else STDIO; else MPI-IO alone, which
// this runtime never emits but foreign logs may.
func (f *FileRow) Accounted() (*ModRow, ModuleID) {
	switch {
	case f.Posix.Present:
		return &f.Posix, ModulePOSIX
	case f.Stdio.Present:
		return &f.Stdio, ModuleSTDIO
	default:
		return &f.Mpiio, ModuleMPIIO
	}
}

// SizeBins is the width of a SizeRow: the read access-size bins, then the
// write bins.
const SizeBins = 2 * units.NumRequestBins

// SizeRow is one log's access-size histogram for one path, summed over the
// path's records. Integer adds commute, so folding the row is folding the
// records.
type SizeRow struct {
	Path string
	Bins [SizeBins]int64
	// Rewrite and Unique split extended-STDIO write volume into bytes that
	// landed below the file's high-water mark and bytes that extended it;
	// zero on POSIX rows.
	Rewrite, Unique int64
}

func (s *SizeRow) addBins(rec *FileRecord, cRead, cWrite int) {
	for b := 0; b < units.NumRequestBins; b++ {
		s.Bins[b] += rec.Counters[cRead+b]
		s.Bins[units.NumRequestBins+b] += rec.Counters[cWrite+b]
	}
}

// LogRows is one log reduced to its accounting rows. Each table is in
// first-appearance order of its paths in the log — the order colfmt writes
// rows in, so it is part of the .dgc byte layout.
type LogRows struct {
	Job    JobHeader
	Domain string // Job.Metadata["domain"]; "" when the job has no attribution
	// Tuning signals: the widest Lustre stripe layout on any record, and
	// the MPI-IO collective and independent operation counts.
	TuneStripe, TuneColl, TuneIndep int64

	Files  []FileRow
	Posix  []SizeRow
	StdioX []SizeRow
}

// Grouper reduces logs to accounting rows, reusing its tables from one log
// to the next so that steady-state grouping allocates nothing. The zero
// value is ready to use. Not safe for concurrent use.
type Grouper struct {
	index map[RecordID]int32 // record id → index in sizes and, until compaction, rows.Files
	sizes []sizeSlot
	rows  LogRows
}

// maxReusedKeys bounds the maps ReuseMap keeps. It is above the 99th
// percentile of a synthesized campaign's name tables (41 of a median 1),
// so nearly every log reuses the map, and clearing it costs little.
const maxReusedKeys = 64

// ReuseMap empties a map kept from one log for the next. A map that held
// more than maxReusedKeys keys is not cleared but replaced by a fresh one
// sized for maxReusedKeys: clear costs a map's capacity, not its length, so
// a map kept after one outsized log would charge its size to every log
// after it. A nil map stays nil.
func ReuseMap[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > maxReusedKeys {
		return make(map[K]V, maxReusedKeys)
	}
	clear(m)
	return m
}

// sizeSlot locates a record id's rows in LogRows.Posix and LogRows.StdioX;
// −1 until the first record that needs one.
type sizeSlot struct{ posix, stdiox int32 }

// Group reduces log to its rows. The result is valid until the next call.
//
// Records group by record id. An id with no POSIX, MPI-IO or STDIO record
// (a Lustre- or extended-STDIO-only entry) yields no file row, and an id the
// name table cannot resolve (a truncated log) yields no row of any kind.
func (g *Grouper) Group(log *Log) *LogRows {
	g.index = ReuseMap(g.index)
	if g.index == nil {
		g.index = map[RecordID]int32{}
	}
	g.sizes = g.sizes[:0]
	r := &g.rows
	*r = LogRows{Job: log.Job, Domain: log.Job.Metadata["domain"],
		Files: r.Files[:0], Posix: r.Posix[:0], StdioX: r.StdioX[:0]}

	for _, rec := range log.Records {
		i, ok := g.index[rec.Record]
		if !ok {
			i = int32(len(r.Files))
			g.index[rec.Record] = i
			r.Files = append(r.Files, FileRow{Path: log.PathOf(rec.Record)})
			g.sizes = append(g.sizes, sizeSlot{-1, -1})
		}
		f := &r.Files[i]
		switch rec.Module {
		case ModulePOSIX:
			f.Posix.add(rec, PosixBytesRead, PosixBytesWritten, PosixFReadTime, PosixFWriteTime)
			if f.Path != "" {
				sizeRow(&r.Posix, &g.sizes[i].posix, f.Path).
					addBins(rec, PosixSizeRead0To100, PosixSizeWrite0To100)
			}
		case ModuleMPIIO:
			f.Mpiio.add(rec, MpiioBytesRead, MpiioBytesWritten, MpiioFReadTime, MpiioFWriteTime)
			r.TuneColl += rec.Counters[MpiioCollReads] + rec.Counters[MpiioCollWrites] + rec.Counters[MpiioCollOpens]
			r.TuneIndep += rec.Counters[MpiioIndepReads] + rec.Counters[MpiioIndepWrites] + rec.Counters[MpiioIndepOpens]
		case ModuleSTDIO:
			f.Stdio.add(rec, StdioBytesRead, StdioBytesWritten, StdioFReadTime, StdioFWriteTime)
		case ModuleLustre:
			r.TuneStripe = max(r.TuneStripe, rec.Counters[LustreStripeWidth])
		case ModuleStdioX:
			if f.Path != "" {
				s := sizeRow(&r.StdioX, &g.sizes[i].stdiox, f.Path)
				s.addBins(rec, StdioXSizeRead0To100, StdioXSizeWrite0To100)
				s.Rewrite += rec.Counters[StdioXRewriteBytes]
				s.Unique += rec.Counters[StdioXUniqueBytes]
			}
		}
	}

	n := 0
	for i := range r.Files {
		if f := &r.Files[i]; f.Path != "" && (f.Posix.Present || f.Mpiio.Present || f.Stdio.Present) {
			if n != i {
				r.Files[n] = *f
			}
			n++
		}
	}
	r.Files = r.Files[:n]
	return r
}

// sizeRow returns the row *at indexes in *table, appending a fresh row for
// path when *at is still −1.
func sizeRow(table *[]SizeRow, at *int32, path string) *SizeRow {
	if *at < 0 {
		*at = int32(len(*table))
		*table = append(*table, SizeRow{Path: path})
	}
	return &(*table)[*at]
}
