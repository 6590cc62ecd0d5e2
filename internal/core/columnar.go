// Columnar campaign storage: converting row-oriented campaigns into colfmt
// files and querying them at batch granularity.
//
// Convert streams a campaign — whatever row-oriented source Open finds at
// the path — through a colfmt.Writer, one log in memory at a time, and
// commits the output atomically (temp file + rename). Folding the result
// back is plain Ingest: the unit of work handed to the worker pool is then
// a raw segment (a few hundred pre-folded logs) instead of one zlib'd log,
// and each worker folds decoded column batches straight into its private
// aggregator via analysis.FoldBatch, so the rendered report is
// byte-identical to the logfmt path at any worker count.
//
// QueryColumnarTotals is the narrow-query fast path: it decodes only the
// per-file byte columns (flags, path, six counters) and, when a volume
// predicate is set, skips whole segments whose stats block proves no file
// can match — the Table 4 >1 TiB tail scan without touching histogram or
// time columns.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"iolayers/internal/checkpoint"
	"iolayers/internal/darshan/colfmt"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/obsv"
	"iolayers/internal/units"
)

// ConvertOptions configures a logfmt → colfmt conversion.
type ConvertOptions struct {
	// SegmentLogs is the number of logs per columnar segment
	// (0 = colfmt.DefaultSegmentLogs).
	SegmentLogs int
	// Limits bounds what the log decoder will allocate; zero fields take
	// logfmt.DefaultLimits.
	Limits logfmt.DecodeLimits
	// Metrics receives the "convert" stage span plus convert.* counters.
	// Nil disables metrics at zero cost.
	Metrics *obsv.Registry
}

// ConvertResult summarizes a conversion.
type ConvertResult struct {
	Logs     int
	Segments int
	// BytesIn is the raw input consumed; BytesOut the columnar file size
	// produced.
	BytesIn  int64
	BytesOut int64
}

// convert walks the source at src into a fresh colfmt.Writer on a
// checkpoint.AtomicFile and commits dst atomically on success. Conversion is
// strict: any undecodable log aborts it — a columnar file must be a faithful
// image of its source, so damaged campaigns should be ingested with a
// QuarantineDir first and the cleaned archive converted. On error
// (including cancellation) dst is untouched.
func convert(ctx context.Context, src, dst string, opts ConvertOptions, want string) (ConvertResult, error) {
	in, err := openKind(src, opts.Limits, want)
	if err != nil {
		return ConvertResult{}, err
	}
	defer in.close()
	if in.mode() == "columnar" {
		return ConvertResult{}, fmt.Errorf("core: %s is already a columnar campaign", src)
	}
	if in.remaining() == 0 {
		return ConvertResult{}, fmt.Errorf("core: no .darshan logs in %s", src)
	}

	span := opts.Metrics.Span("convert")
	timer := span.Begin()
	defer timer.End()

	out, err := checkpoint.CreateAtomic(dst)
	if err != nil {
		return ConvertResult{}, fmt.Errorf("core: creating temp output: %w", err)
	}
	defer out.Abort()

	w, err := colfmt.NewWriter(out, opts.SegmentLogs)
	if err != nil {
		return ConvertResult{}, err
	}
	var dec itemDecoder
	var bytesIn int64
	for {
		if err := ctx.Err(); err != nil {
			return ConvertResult{}, err
		}
		item, ok, err := in.next()
		if err != nil {
			return ConvertResult{}, err
		}
		if !ok {
			break
		}
		log, err := dec.decode(opts.Limits, item)
		if err != nil {
			return ConvertResult{}, fmt.Errorf("core: %s: %w", item.source(), err)
		}
		if err := w.Append(log); err != nil {
			return ConvertResult{}, err
		}
		if item.path == "" {
			bytesIn += int64(len(item.raw))
		} else if fi, err := os.Stat(item.path); err == nil {
			bytesIn += fi.Size()
		}
	}
	if err := w.Close(); err != nil {
		return ConvertResult{}, err
	}
	res := ConvertResult{Logs: w.Count(), Segments: w.Segments(), BytesIn: bytesIn}
	if fi, err := out.Stat(); err == nil {
		res.BytesOut = fi.Size()
	}
	if err := out.Commit(); err != nil {
		return ConvertResult{}, fmt.Errorf("core: committing %s: %w", dst, err)
	}
	if m := opts.Metrics; m != nil {
		m.Counter("convert.logs").Add(int64(res.Logs))
		m.Counter("convert.segments").Add(int64(res.Segments))
		span.AddOps(int64(res.Logs))
		span.AddBytes(res.BytesIn)
		logfmt.PublishMetrics(m)
		colfmt.PublishMetrics(m)
	}
	return res, nil
}

// Convert writes the columnar image of the row-oriented campaign at src — a
// directory of *.darshan logs (in the sorted order Ingest consumes them), a
// single log, or a .dgar archive streamed entry by entry — to dst.
func Convert(ctx context.Context, src, dst string, opts ConvertOptions) (ConvertResult, error) {
	return convert(ctx, src, dst, opts, "")
}

// ConvertArchive is Convert for a src that must be a .dgar archive.
func ConvertArchive(ctx context.Context, src, dst string, opts ConvertOptions) (ConvertResult, error) {
	return convert(ctx, src, dst, opts, "archive")
}

// ColumnarQuery selects what QueryColumnarTotals scans.
type ColumnarQuery struct {
	// MinFileBytes, when positive, restricts the scan to files whose
	// larger per-direction POSIX-preferred volume is at least this many
	// bytes — and lets the stats block skip whole segments that cannot
	// contain one (the >1 TiB tail query of Table 4 sets units.TiB + 1).
	MinFileBytes int64
	// Limits bounds decoder allocations; zero fields take defaults.
	Limits logfmt.DecodeLimits
	// Metrics receives the "prune" stage span and the colfmt.segments_*
	// counters. Nil disables metrics.
	Metrics *obsv.Registry
}

// ColumnarTotals is a narrow per-file volume scan over a columnar file.
type ColumnarTotals struct {
	// Files counts accounted file rows that met the query's threshold;
	// ReadBytes/WriteBytes sum their POSIX-preferred per-direction
	// volumes.
	Files      int64
	ReadBytes  int64
	WriteBytes int64
	// HugeRead/HugeWrite count matching files whose per-direction volume
	// exceeds 1 TiB (Table 4's tail).
	HugeRead  int64
	HugeWrite int64
	// SegmentsScanned and SegmentsPruned split the file's segments into
	// decoded versus skipped-by-stats.
	SegmentsScanned int64
	SegmentsPruned  int64
}

// QueryColumnarTotals scans the columnar file at path and returns
// POSIX-preferred per-file volume totals, decoding only the GroupFiles
// columns. With MinFileBytes set, segments whose stats prove every file is
// below the threshold are skipped without decoding a single column.
func QueryColumnarTotals(ctx context.Context, path string, q ColumnarQuery) (ColumnarTotals, error) {
	span := q.Metrics.Span("prune")
	timer := span.Begin()
	defer timer.End()

	f, err := os.Open(path)
	if err != nil {
		return ColumnarTotals{}, fmt.Errorf("core: opening %s: %w", path, err)
	}
	defer f.Close()
	cr, err := colfmt.NewReaderWithLimits(f, q.Limits)
	if err != nil {
		return ColumnarTotals{}, fmt.Errorf("core: %s: %w", path, err)
	}

	var tot ColumnarTotals
	for seg := 0; ; seg++ {
		if err := ctx.Err(); err != nil {
			return ColumnarTotals{}, err
		}
		raw, err := cr.NextRaw()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return ColumnarTotals{}, fmt.Errorf("core: %s segment %d: %w", path, seg, err)
		}
		if q.MinFileBytes > 0 {
			info, err := colfmt.PeekSegment(raw, q.Limits)
			if err != nil {
				return ColumnarTotals{}, fmt.Errorf("core: %s segment %d: %w", path, seg, err)
			}
			if info.MaxFileBytes() < q.MinFileBytes {
				tot.SegmentsPruned++
				continue
			}
		}
		b, err := colfmt.DecodeSegment(raw, colfmt.GroupFiles, q.Limits)
		if err != nil {
			return ColumnarTotals{}, fmt.Errorf("core: %s segment %d: %w", path, seg, err)
		}
		tot.SegmentsScanned++
		for r := 0; r < b.FileRows; r++ {
			f := b.FileRow(r)
			acct, _ := f.Accounted()
			readB, writeB := acct.ReadB, acct.WriteB
			if q.MinFileBytes > 0 && readB < q.MinFileBytes && writeB < q.MinFileBytes {
				continue
			}
			tot.Files++
			tot.ReadBytes += readB
			tot.WriteBytes += writeB
			if units.ByteSize(readB) > units.TiB {
				tot.HugeRead++
			}
			if units.ByteSize(writeB) > units.TiB {
				tot.HugeWrite++
			}
		}
	}
	if m := q.Metrics; m != nil {
		m.Counter("colfmt.segments_scanned").Add(tot.SegmentsScanned)
		m.Counter("colfmt.segments_pruned").Add(tot.SegmentsPruned)
		span.AddOps(tot.SegmentsScanned + tot.SegmentsPruned)
	}
	return tot, nil
}
