package main

import (
	"math"
	"strings"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/units"
)

func seg(kind darshan.OpKind, off, length int64, start, end float64) darshan.DXTSegment {
	return darshan.DXTSegment{Kind: kind, Offset: off, Length: length, Start: start, End: end}
}

func trace(segs ...darshan.DXTSegment) darshan.DXTTrace {
	return darshan.DXTTrace{Module: darshan.ModulePOSIX, Record: 1, Rank: 0, Segments: segs}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	st := analyzeTrace(trace(), 1)
	if st.Ops != 0 || len(st.Phases) != 0 {
		t.Errorf("empty trace: %+v", st)
	}
}

func TestConsecutivePattern(t *testing.T) {
	st := analyzeTrace(trace(
		seg(darshan.OpWrite, 0, 100, 0, 0.1),
		seg(darshan.OpWrite, 100, 100, 0.2, 0.3),
		seg(darshan.OpWrite, 200, 100, 0.4, 0.5),
	), 1)
	if st.Pattern != consecutive {
		t.Errorf("pattern = %v, want consecutive", st.Pattern)
	}
	if st.Ops != 3 || st.WriteOps != 3 || st.Bytes != 300 {
		t.Errorf("counts: %+v", st)
	}
}

func TestSequentialWithHoles(t *testing.T) {
	st := analyzeTrace(trace(
		seg(darshan.OpRead, 0, 100, 0, 0.1),
		seg(darshan.OpRead, 500, 100, 0.2, 0.3), // forward jump
	), 1)
	if st.Pattern != sequential {
		t.Errorf("pattern = %v, want sequential", st.Pattern)
	}
}

func TestRandomPattern(t *testing.T) {
	st := analyzeTrace(trace(
		seg(darshan.OpRead, 500, 100, 0, 0.1),
		seg(darshan.OpRead, 0, 100, 0.2, 0.3), // backwards
	), 1)
	if st.Pattern != random {
		t.Errorf("pattern = %v, want random", st.Pattern)
	}
}

func TestPhaseDetection(t *testing.T) {
	// Two bursts of 2 ops separated by a 10-second gap.
	st := analyzeTrace(trace(
		seg(darshan.OpWrite, 0, 100, 0, 0.1),
		seg(darshan.OpWrite, 100, 100, 0.2, 0.3),
		seg(darshan.OpWrite, 200, 100, 10.3, 10.4),
		seg(darshan.OpWrite, 300, 100, 10.5, 10.6),
	), 1.0)
	if len(st.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(st.Phases))
	}
	if st.Phases[0].Ops != 2 || st.Phases[1].Ops != 2 {
		t.Errorf("phase ops: %+v", st.Phases)
	}
	if st.Phases[0].Bytes != 200 || st.Phases[1].Bytes != 200 {
		t.Errorf("phase bytes: %+v", st.Phases)
	}
	if math.Abs(st.MaxGap-10.0) > 1e-9 {
		t.Errorf("max gap = %v, want 10", st.MaxGap)
	}
	if d := st.Phases[0].Duration(); math.Abs(d-0.3) > 1e-9 {
		t.Errorf("phase 0 duration = %v, want 0.3", d)
	}
}

func TestDutyCycle(t *testing.T) {
	// 0.2s busy within a 1.0s span.
	st := analyzeTrace(trace(
		seg(darshan.OpWrite, 0, 100, 0, 0.1),
		seg(darshan.OpWrite, 100, 100, 0.9, 1.0),
	), 5)
	if math.Abs(st.DutyCycle-0.2) > 1e-9 {
		t.Errorf("duty cycle = %v, want 0.2", st.DutyCycle)
	}
	if math.Abs(st.MeanGap-0.8) > 1e-9 {
		t.Errorf("mean gap = %v, want 0.8", st.MeanGap)
	}
}

func TestUnsortedSegmentsHandled(t *testing.T) {
	// Segments arrive out of order; analysis must sort by start time.
	st := analyzeTrace(trace(
		seg(darshan.OpWrite, 100, 100, 0.2, 0.3),
		seg(darshan.OpWrite, 0, 100, 0, 0.1),
	), 1)
	if st.Pattern != consecutive {
		t.Errorf("pattern = %v, want consecutive after sorting", st.Pattern)
	}
}

func TestDefaultPhaseGap(t *testing.T) {
	st := analyzeTrace(trace(
		seg(darshan.OpWrite, 0, 100, 0, 0.1),
		seg(darshan.OpWrite, 100, 100, 2.0, 2.1), // 1.9s gap > default 1s
	), 0)
	if len(st.Phases) != 2 {
		t.Errorf("phases = %d, want 2 with default gap", len(st.Phases))
	}
}

func TestAnalyzeLogEndToEnd(t *testing.T) {
	rt := darshan.NewRuntime(darshan.JobHeader{JobID: 1, NProcs: 1, StartTime: 0, EndTime: 100})
	rt.EnableDXT(32)
	p := "/gpfs/alpine/trace.bin"
	off := int64(0)
	for i := 0; i < 5; i++ {
		rt.Observe(darshan.Op{Module: darshan.ModulePOSIX, Path: p, Rank: 0,
			Kind: darshan.OpWrite, Size: units.MiB, Offset: off,
			Start: float64(i) * 5, End: float64(i)*5 + 0.5})
		off += int64(units.MiB)
	}
	log := rt.Finalize()
	stats := analyzeDXT(log, 1.0)
	if len(stats) != 1 {
		t.Fatalf("stats = %d", len(stats))
	}
	st := stats[0]
	if st.Ops != 5 || st.Pattern != consecutive {
		t.Errorf("end-to-end: %+v", st)
	}
	// 5 ops 4.5s apart: every op its own phase.
	if len(st.Phases) != 5 {
		t.Errorf("phases = %d, want 5 (checkpoint-like bursts)", len(st.Phases))
	}
	out := renderDXT(log, stats)
	for _, want := range []string{"DXT analysis", p, "consecutive", "phases=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
