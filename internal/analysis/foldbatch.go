package analysis

import (
	"fmt"

	"iolayers/internal/darshan"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/iosim"
)

// FoldBatch folds one decoded columnar segment into the aggregate: each row
// is read back as the row the writer was handed and goes through the row
// fold AddLog puts a freshly grouped log's rows through, so a report
// rendered from a converted campaign is byte-identical to one rendered from
// the row-oriented original.
//
// The caller chooses via Projection which columns were decoded; a full
// fold requires colfmt.ProjectAll. Layer routing runs once per dictionary
// entry, not once per row. Like AddLog, FoldBatch panics on paths foreign
// to the aggregator's system; structural defects in the batch itself
// (row-end columns out of range, dictionary references past the table)
// return an error instead, since batches come from files. Either way the
// whole batch is checked and routed before its first log is folded, so a
// rejected segment contributes nothing.
func (a *Aggregator) FoldBatch(b *colfmt.Batch) error {
	if b == nil {
		panic("analysis: nil batch")
	}
	route, err := a.routeBatch(b)
	if err != nil {
		return err
	}

	file, posix, sx := 0, 0, 0
	for i := 0; i < b.NumLogs; i++ {
		// The log's header and tuning signals; its rows are folded one at
		// a time below rather than gathered into the tables.
		log := darshan.LogRows{
			Job: darshan.JobHeader{
				JobID:     uint64(colfmt.At(b.JobID, i)),
				UserID:    uint64(colfmt.At(b.UserID, i)),
				NProcs:    int(colfmt.At(b.NProcs, i)),
				StartTime: colfmt.At(b.StartTime, i),
				EndTime:   colfmt.At(b.EndTime, i),
			},
			Domain:     b.Dict[colfmt.At(b.Domain, i)],
			TuneStripe: colfmt.At(b.TuneStripe, i),
			TuneColl:   colfmt.At(b.TuneColl, i),
			TuneIndep:  colfmt.At(b.TuneIndep, i),
		}
		lc := a.beginLog(log.Job, log.Domain)
		a.observeTuning(&log)
		for end := int(colfmt.At(b.FileEnd, i)); file < end; file++ {
			if k := route[colfmt.At(b.FilePath, file)]; k != unrouted {
				f := b.FileRow(file)
				a.foldFile(lc, &f, k)
			}
		}
		for end := int(colfmt.At(b.PosixEnd, i)); posix < end; posix++ {
			if k := route[colfmt.At(b.PosixHistPath, posix)]; k != unrouted {
				s := b.PosixSizeRow(posix)
				a.foldPosixSizes(lc, &s, k)
			}
		}
		for end := int(colfmt.At(b.StdioXEnd, i)); sx < end; sx++ {
			if k := route[colfmt.At(b.StdioXPath, sx)]; k != unrouted {
				s := b.StdioXSizeRow(sx)
				a.foldStdioXSizes(&s, k)
			}
		}
	}
	return nil
}

// unrouted marks a dictionary entry no row folds through: the empty path
// (rows carrying it are skipped, as the grouper skips unresolvable records)
// or a string no path column references, such as a domain name.
const unrouted iosim.LayerKind = -1

// routeBatch checks every reference FoldBatch will follow — each log's
// row-end offsets, each row's path, each log's domain — and returns the
// layer of every dictionary entry a path column references.
func (a *Aggregator) routeBatch(b *colfmt.Batch) ([]iosim.LayerKind, error) {
	route := make([]iosim.LayerKind, len(b.Dict))
	for i := range route {
		route[i] = unrouted
	}
	for _, t := range [...]struct {
		name        string
		ends, paths []int64
		rows        int
	}{
		{"file", b.FileEnd, b.FilePath, b.FileRows},
		{"posix", b.PosixEnd, b.PosixHistPath, b.PosixRows},
		{"stdiox", b.StdioXEnd, b.StdioXPath, b.StdioXRows},
	} {
		start := 0
		for i := 0; i < b.NumLogs; i++ {
			end := int(colfmt.At(t.ends, i))
			if end < start || end > t.rows {
				return nil, fmt.Errorf("analysis: log %d %s row end %d outside [%d, %d]", i, t.name, end, start, t.rows)
			}
			start = end
		}
		for r := 0; r < start; r++ {
			id := colfmt.At(t.paths, r)
			if id < 0 || id >= int64(len(b.Dict)) {
				return nil, fmt.Errorf("analysis: %s row %d path reference %d outside table of %d", t.name, r, id, len(b.Dict))
			}
			if route[id] == unrouted && b.Dict[id] != "" {
				route[id] = a.sys.LayerFor(b.Dict[id]).Kind()
			}
		}
	}
	for i := 0; i < b.NumLogs; i++ {
		if id := colfmt.At(b.Domain, i); id < 0 || id >= int64(len(b.Dict)) {
			return nil, fmt.Errorf("analysis: log %d domain reference %d outside table of %d", i, id, len(b.Dict))
		}
	}
	return route, nil
}
