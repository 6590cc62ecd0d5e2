package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"iolayers/internal/darshan"
	"iolayers/internal/report"
	"iolayers/internal/units"
)

type moduleTotals struct {
	files                int
	reads, writes        int64
	bytesRead, bytesWrit int64
	readTime, writeTime  float64
}

// summarize renders a per-job report of one log, in the spirit of
// darshan-job-summary: per-module totals, estimated bandwidths, the
// access-size histogram, and the top files that moved the most data.
func summarize(w io.Writer, path string, log *darshan.Log, top int) {
	j := log.Job
	fmt.Fprintf(w, "=== %s ===\n", path)
	fmt.Fprintf(w, "job %d, uid %d, %d processes, %s, runtime %.0fs\n",
		j.JobID, j.UserID, j.NProcs,
		time.Unix(j.StartTime, 0).UTC().Format("2006-01-02 15:04"), j.Runtime())
	if d := j.Metadata["domain"]; d != "" {
		fmt.Fprintf(w, "science domain: %s\n", d)
	}
	fmt.Fprintln(w)

	totals := map[darshan.ModuleID]*moduleTotals{}
	type fileVol struct {
		path  string
		bytes int64
	}
	volumes := map[darshan.RecordID]int64{}
	for _, rec := range log.Records {
		mt, ok := totals[rec.Module]
		if !ok {
			mt = &moduleTotals{}
			totals[rec.Module] = mt
		}
		mt.files++
		switch rec.Module {
		case darshan.ModulePOSIX:
			mt.reads += rec.Counters[darshan.PosixReads]
			mt.writes += rec.Counters[darshan.PosixWrites]
			mt.bytesRead += rec.Counters[darshan.PosixBytesRead]
			mt.bytesWrit += rec.Counters[darshan.PosixBytesWritten]
			mt.readTime += rec.FCounters[darshan.PosixFReadTime]
			mt.writeTime += rec.FCounters[darshan.PosixFWriteTime]
			volumes[rec.Record] += rec.Counters[darshan.PosixBytesRead] + rec.Counters[darshan.PosixBytesWritten]
		case darshan.ModuleMPIIO:
			mt.reads += rec.Counters[darshan.MpiioIndepReads] + rec.Counters[darshan.MpiioCollReads]
			mt.writes += rec.Counters[darshan.MpiioIndepWrites] + rec.Counters[darshan.MpiioCollWrites]
			mt.bytesRead += rec.Counters[darshan.MpiioBytesRead]
			mt.bytesWrit += rec.Counters[darshan.MpiioBytesWritten]
			mt.readTime += rec.FCounters[darshan.MpiioFReadTime]
			mt.writeTime += rec.FCounters[darshan.MpiioFWriteTime]
		case darshan.ModuleSTDIO:
			mt.reads += rec.Counters[darshan.StdioReads]
			mt.writes += rec.Counters[darshan.StdioWrites]
			mt.bytesRead += rec.Counters[darshan.StdioBytesRead]
			mt.bytesWrit += rec.Counters[darshan.StdioBytesWritten]
			mt.readTime += rec.FCounters[darshan.StdioFReadTime]
			mt.writeTime += rec.FCounters[darshan.StdioFWriteTime]
			volumes[rec.Record] += rec.Counters[darshan.StdioBytesRead] + rec.Counters[darshan.StdioBytesWritten]
		}
	}

	fmt.Fprintf(w, "%-8s %7s %10s %10s %12s %12s %10s %10s\n",
		"module", "files", "reads", "writes", "bytes read", "bytes writ", "read MB/s", "write MB/s")
	for _, m := range darshan.Modules() {
		mt, ok := totals[m]
		if !ok || m == darshan.ModuleLustre {
			continue
		}
		rbw, wbw := 0.0, 0.0
		if mt.readTime > 0 {
			rbw = float64(mt.bytesRead) / mt.readTime / 1e6
		}
		if mt.writeTime > 0 {
			wbw = float64(mt.bytesWrit) / mt.writeTime / 1e6
		}
		fmt.Fprintf(w, "%-8s %7d %10d %10d %12s %12s %10.1f %10.1f\n",
			m, mt.files, mt.reads, mt.writes,
			report.HumanBytes(float64(mt.bytesRead)), report.HumanBytes(float64(mt.bytesWrit)),
			rbw, wbw)
	}

	// Access-size histogram across POSIX records.
	var hist [units.NumRequestBins]int64
	for _, rec := range log.RecordsFor(darshan.ModulePOSIX) {
		for b := 0; b < units.NumRequestBins; b++ {
			hist[b] += rec.Counters[darshan.PosixSizeRead0To100+b] +
				rec.Counters[darshan.PosixSizeWrite0To100+b]
		}
	}
	var histTotal int64
	for _, c := range hist {
		histTotal += c
	}
	if histTotal > 0 {
		fmt.Fprintln(w, "\nPOSIX access sizes:")
		for b, c := range hist {
			if c == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-9s %10d (%5.1f%%)\n",
				units.RequestBin(b), c, 100*float64(c)/float64(histTotal))
		}
	}

	// Top files by volume.
	files := make([]fileVol, 0, len(volumes))
	for id, b := range volumes {
		if b > 0 {
			files = append(files, fileVol{log.PathOf(id), b})
		}
	}
	// Ties break by path: volumes is a map, and the order must not be its.
	sort.Slice(files, func(i, j int) bool {
		if files[i].bytes != files[j].bytes {
			return files[i].bytes > files[j].bytes
		}
		return files[i].path < files[j].path
	})
	if len(files) > 0 {
		fmt.Fprintf(w, "\ntop files by volume:\n")
		for i, f := range files {
			if i >= top {
				break
			}
			fmt.Fprintf(w, "  %12s  %s\n", report.HumanBytes(float64(f.bytes)), f.path)
		}
	}
	fmt.Fprintln(w)
}
