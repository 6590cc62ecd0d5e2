package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"iolayers/internal/darshan"
)

// dump prints one log in full, the way darshan-parser does: the job header,
// the name table, and every record's counters by name. Metadata keys are
// printed sorted, so a log always dumps to the same bytes.
func dump(w io.Writer, path string, log *darshan.Log) {
	j := log.Job
	fmt.Fprintf(w, "# log:        %s\n", path)
	fmt.Fprintf(w, "# jobid:      %d\n", j.JobID)
	fmt.Fprintf(w, "# uid:        %d\n", j.UserID)
	fmt.Fprintf(w, "# nprocs:     %d\n", j.NProcs)
	fmt.Fprintf(w, "# start_time: %s\n", time.Unix(j.StartTime, 0).UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "# end_time:   %s\n", time.Unix(j.EndTime, 0).UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "# run_time:   %.0f\n", j.Runtime())
	fmt.Fprintf(w, "# exe:        %s\n", j.Exe)
	keys := make([]string, 0, len(j.Metadata))
	for k := range j.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# meta %s = %s\n", k, j.Metadata[k])
	}
	fmt.Fprintf(w, "# records:    %d, names: %d\n\n", len(log.Records), len(log.Names))

	if len(log.DXT) > 0 {
		fmt.Fprintf(w, "# DXT traces: %d\n", len(log.DXT))
		for _, tr := range log.DXT {
			fmt.Fprintf(w, "DXT %s\t%d\t%016x\t%s\n", tr.Module, tr.Rank, uint64(tr.Record), log.PathOf(tr.Record))
			for _, seg := range tr.Segments {
				fmt.Fprintf(w, "\t%-5s off=%-12d len=%-12d [%.6f, %.6f]\n",
					seg.Kind, seg.Offset, seg.Length, seg.Start, seg.End)
			}
		}
		fmt.Fprintln(w)
	}

	for _, rec := range log.Records {
		fmt.Fprintf(w, "%s\t%d\t%016x\t%s\n", rec.Module, rec.Rank, uint64(rec.Record), log.PathOf(rec.Record))
		names := darshan.CounterNames(rec.Module)
		for i, v := range rec.Counters {
			if v == 0 {
				continue
			}
			name := fmt.Sprintf("COUNTER_%d", i)
			if i < len(names) {
				name = names[i]
			}
			fmt.Fprintf(w, "\t%s\t%d\n", name, v)
		}
		fnames := darshan.FCounterNames(rec.Module)
		for i, v := range rec.FCounters {
			if v == 0 {
				continue
			}
			name := fmt.Sprintf("F_COUNTER_%d", i)
			if i < len(fnames) {
				name = fnames[i]
			}
			fmt.Fprintf(w, "\t%s\t%.6f\n", name, v)
		}
	}
}
