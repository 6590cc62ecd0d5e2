package main

// The dxt subcommand analyzes Darshan eXtended Tracing records — the
// high-resolution per-operation traces the paper's §2.2 describes as the
// tool for "in-depth analysis of HPC I/O workloads" (and notes were
// disabled in both production collections). Given the segment lists the
// darshan runtime's EnableDXT produces, it classifies access patterns,
// detects I/O phases (bursts), and computes the per-trace statistics that
// counter-level Darshan records cannot express: exact burstiness, duty
// cycle, and inter-operation gaps.

import (
	"fmt"
	"io"
	"sort"

	"iolayers/internal/darshan"
)

// pattern classifies a trace's offset behavior.
type pattern int

// Access patterns, from most to least storage-friendly.
const (
	// consecutive: every operation starts exactly where the previous ended.
	consecutive pattern = iota
	// sequential: offsets are monotone non-decreasing, possibly with holes.
	sequential
	// random: offsets move backwards at least once.
	random
)

// String names the pattern.
func (p pattern) String() string {
	switch p {
	case consecutive:
		return "consecutive"
	case sequential:
		return "sequential"
	case random:
		return "random"
	default:
		return "pattern(?)"
	}
}

// phase is one contiguous burst of I/O within a trace: operations separated
// by gaps no longer than the detector's threshold.
type phase struct {
	Start, End float64
	Ops        int
	Bytes      int64
}

// Duration returns the phase's wall-clock span in seconds.
func (p phase) Duration() float64 { return p.End - p.Start }

// traceStats summarizes one DXT trace.
type traceStats struct {
	Module darshan.ModuleID
	Record darshan.RecordID
	Rank   int32

	Ops        int
	ReadOps    int
	WriteOps   int
	Bytes      int64
	Span       float64 // first start to last end
	BusyTime   float64 // sum of segment durations
	DutyCycle  float64 // BusyTime / Span
	MeanGap    float64 // mean inter-operation gap
	MaxGap     float64
	Pattern    pattern
	Phases     []phase
	AvgOpBytes float64
}

// analyzeTrace computes statistics for one trace. phaseGap is the
// idle-seconds threshold that splits I/O phases; values at or below zero
// use 1 second, a common burst-detection default.
func analyzeTrace(tr darshan.DXTTrace, phaseGap float64) traceStats {
	if phaseGap <= 0 {
		phaseGap = 1.0
	}
	st := traceStats{Module: tr.Module, Record: tr.Record, Rank: tr.Rank}
	if len(tr.Segments) == 0 {
		return st
	}
	segs := append([]darshan.DXTSegment(nil), tr.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })

	st.Ops = len(segs)
	st.Span = segs[len(segs)-1].End - segs[0].Start
	st.Pattern = consecutive

	var prevEnd float64
	var prevByteEnd int64
	cur := phase{Start: segs[0].Start, End: segs[0].End}
	var gaps []float64
	for i, s := range segs {
		if s.Kind == darshan.OpRead {
			st.ReadOps++
		} else {
			st.WriteOps++
		}
		st.Bytes += s.Length
		st.BusyTime += s.End - s.Start

		if i > 0 {
			gap := s.Start - prevEnd
			if gap < 0 {
				gap = 0 // overlapping segments (concurrent ranks collapsed)
			}
			gaps = append(gaps, gap)
			if gap > st.MaxGap {
				st.MaxGap = gap
			}
			switch {
			case s.Offset == prevByteEnd:
				// still consecutive
			case s.Offset > prevByteEnd:
				if st.Pattern == consecutive {
					st.Pattern = sequential
				}
			default:
				st.Pattern = random
			}
			if gap > phaseGap {
				st.Phases = append(st.Phases, cur)
				cur = phase{Start: s.Start, End: s.End}
			} else {
				if s.End > cur.End {
					cur.End = s.End
				}
			}
		}
		cur.Ops++
		cur.Bytes += s.Length
		prevEnd = s.End
		prevByteEnd = s.Offset + s.Length
	}
	st.Phases = append(st.Phases, cur)

	if st.Span > 0 {
		st.DutyCycle = st.BusyTime / st.Span
		if st.DutyCycle > 1 {
			st.DutyCycle = 1 // concurrent segments can exceed the span
		}
	}
	if len(gaps) > 0 {
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		st.MeanGap = sum / float64(len(gaps))
	}
	st.AvgOpBytes = float64(st.Bytes) / float64(st.Ops)
	return st
}

// analyzeDXT analyzes every trace in a log.
func analyzeDXT(log *darshan.Log, phaseGap float64) []traceStats {
	out := make([]traceStats, 0, len(log.DXT))
	for _, tr := range log.DXT {
		out = append(out, analyzeTrace(tr, phaseGap))
	}
	return out
}

// renderDXT formats trace statistics with their resolved paths.
func renderDXT(log *darshan.Log, stats []traceStats) string {
	out := fmt.Sprintf("DXT analysis: %d traces\n", len(stats))
	for _, st := range stats {
		out += fmt.Sprintf("%s rank %d  %s\n", st.Module, st.Rank, log.PathOf(st.Record))
		out += fmt.Sprintf("  ops=%d (r=%d w=%d)  bytes=%d  avg op=%.0f B  pattern=%s\n",
			st.Ops, st.ReadOps, st.WriteOps, st.Bytes, st.AvgOpBytes, st.Pattern)
		out += fmt.Sprintf("  span=%.3fs busy=%.3fs duty=%.2f  phases=%d  mean gap=%.3fs max gap=%.3fs\n",
			st.Span, st.BusyTime, st.DutyCycle, len(st.Phases), st.MeanGap, st.MaxGap)
	}
	return out
}

// showDXT prints one log's trace analysis: access patterns, I/O phases,
// duty cycles. A log without DXT sections (the production default on both
// studied systems) reports "no traces".
func showDXT(w io.Writer, path string, log *darshan.Log, phaseGap float64) {
	fmt.Fprintf(w, "# %s (job %d)\n", path, log.Job.JobID)
	if len(log.DXT) == 0 {
		fmt.Fprintln(w, "no traces (DXT was not enabled when this log was produced)")
		return
	}
	fmt.Fprint(w, renderDXT(log, analyzeDXT(log, phaseGap)))
}
