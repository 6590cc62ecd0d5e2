package sched

import (
	"math"
	"testing"

	"iolayers/internal/stats"
	"iolayers/internal/workload"
)

func TestSimulateEmptyMachineRejected(t *testing.T) {
	if _, _, err := Simulate(Config{Nodes: 0}, nil); err == nil {
		t.Error("expected error for zero-node machine")
	}
}

func TestSimulateRejectsOversizedJobs(t *testing.T) {
	_, _, err := Simulate(Config{Nodes: 4}, []Job{{ID: 1, Nodes: 8, Runtime: 10}})
	if err == nil {
		t.Error("expected error for job larger than machine")
	}
	_, _, err = Simulate(Config{Nodes: 4, BBNodes: 0}, []Job{{ID: 1, Nodes: 1, BBNodes: 2, Runtime: 10}})
	if err == nil {
		t.Error("expected error for BB request on BB-less machine")
	}
}

func TestFIFOOnEmptyMachine(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, Nodes: 2, Runtime: 100},
		{ID: 2, Submit: 10, Nodes: 2, Runtime: 100},
	}
	place, m, err := Simulate(Config{Nodes: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(place) != 2 {
		t.Fatalf("placements = %d", len(place))
	}
	for _, p := range place {
		if p.Wait != 0 {
			t.Errorf("job %d waited %v on an empty machine", p.Job.ID, p.Wait)
		}
	}
	if m.Makespan != 110 {
		t.Errorf("makespan = %v, want 110", m.Makespan)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 0, Nodes: 4, Runtime: 100},
		{ID: 2, Submit: 0, Nodes: 4, Runtime: 50},
	}
	place, m, err := Simulate(Config{Nodes: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range place {
		byID[p.Job.ID] = p
	}
	if byID[2].Start != 100 {
		t.Errorf("job 2 started at %v, want 100 (after job 1)", byID[2].Start)
	}
	if m.MaxWait != 100 {
		t.Errorf("max wait = %v", m.MaxWait)
	}
}

func TestEASYBackfill(t *testing.T) {
	// Machine: 4 nodes. J1 holds all 4 until t=100. J2 (head, 4 nodes)
	// must wait until 100. J3 (1 node, 50s) can backfill immediately
	// because it ends before J2's reservation.
	jobs := []Job{
		{ID: 1, Submit: 0, Nodes: 4, Runtime: 100},
		{ID: 2, Submit: 1, Nodes: 4, Runtime: 100},
		{ID: 3, Submit: 2, Nodes: 1, Runtime: 50},
	}
	place, _, err := Simulate(Config{Nodes: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range place {
		byID[p.Job.ID] = p
	}
	// No nodes free while J1 runs, so J3 backfills only at t=100 with J2?
	// No: zero nodes free until 100, so nothing can start before then; J2
	// (head) takes the machine at 100, J3 runs after it. Re-pose with free
	// nodes: see TestBackfillUsesIdleNodes.
	if byID[2].Start != 100 {
		t.Errorf("head started at %v, want 100", byID[2].Start)
	}
	if byID[3].Start < byID[2].Start {
		t.Errorf("J3 started %v before head %v with no free nodes", byID[3].Start, byID[2].Start)
	}
}

func TestBackfillUsesIdleNodes(t *testing.T) {
	// Machine: 4 nodes. J1 takes 2 nodes until t=100. J2 (head) wants 4 →
	// reserved at t=100. J3 wants 2 nodes for 50s: fits now AND ends at
	// ~50 ≤ 100, so EASY starts it immediately.
	jobs := []Job{
		{ID: 1, Submit: 0, Nodes: 2, Runtime: 100},
		{ID: 2, Submit: 1, Nodes: 4, Runtime: 100},
		{ID: 3, Submit: 2, Nodes: 2, Runtime: 50},
	}
	place, _, err := Simulate(Config{Nodes: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range place {
		byID[p.Job.ID] = p
	}
	if byID[3].Start != 2 {
		t.Errorf("backfill candidate started at %v, want 2 (immediately)", byID[3].Start)
	}
	if byID[2].Start != 100 {
		t.Errorf("head delayed to %v by backfill, want 100", byID[2].Start)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// J3 would fit now but runs 200s > head reservation at 100 → must not
	// start before the head.
	jobs := []Job{
		{ID: 1, Submit: 0, Nodes: 2, Runtime: 100},
		{ID: 2, Submit: 1, Nodes: 4, Runtime: 10},
		{ID: 3, Submit: 2, Nodes: 2, Runtime: 200},
	}
	place, _, err := Simulate(Config{Nodes: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]Placement{}
	for _, p := range place {
		byID[p.Job.ID] = p
	}
	if byID[2].Start != 100 {
		t.Errorf("head start = %v, want 100 (not delayed by backfill)", byID[2].Start)
	}
	if byID[3].Start < byID[2].End {
		t.Errorf("long backfill candidate started at %v, delaying the head", byID[3].Start)
	}
}

func TestOverlappedStagingHidesBehindQueueWait(t *testing.T) {
	// The machine is busy for 500s; a BB job with 300s of staging submits
	// at t=0. With DataWarp overlap the stage is fully hidden; inline it
	// extends the job's occupancy.
	base := []Job{
		{ID: 1, Submit: 0, Nodes: 4, Runtime: 500},
		{ID: 2, Submit: 0, Nodes: 4, Runtime: 100, BBNodes: 2, StageInSeconds: 300},
	}
	overlapped, mo, err := Simulate(Config{Nodes: 4, BBNodes: 8, OverlapStaging: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	inline, mi, err := Simulate(Config{Nodes: 4, BBNodes: 8, OverlapStaging: false}, base)
	if err != nil {
		t.Fatal(err)
	}
	get := func(ps []Placement, id uint64) Placement {
		for _, p := range ps {
			if p.Job.ID == id {
				return p
			}
		}
		t.Fatalf("job %d missing", id)
		return Placement{}
	}
	ov, in := get(overlapped, 2), get(inline, 2)
	if ov.End >= in.End {
		t.Errorf("overlapped staging end %v not before inline %v", ov.End, in.End)
	}
	if math.Abs(ov.StageHidden-300) > 1e-9 {
		t.Errorf("hidden staging = %v, want 300 (fully hidden behind 500s wait)", ov.StageHidden)
	}
	if mi.StageHiddenTotal != 0 {
		t.Errorf("inline staging hid %v", mi.StageHiddenTotal)
	}
	if mo.StageHiddenTotal != 300 {
		t.Errorf("overlap metrics hid %v", mo.StageHiddenTotal)
	}
	// Inline staging occupies compute nodes: makespan grows.
	if mi.Makespan <= mo.Makespan {
		t.Errorf("inline makespan %v not above overlapped %v", mi.Makespan, mo.Makespan)
	}
}

func TestUtilizationBounded(t *testing.T) {
	jobs := FromProfile(workload.Cori(), SourceConfig{
		Scale: 0.0002, Seed: 3, PeriodSeconds: 30 * 86400,
		ProcsPerNode: 64, MachineNodes: 9688,
		BBFraction:   0.19,
		StageSeconds: stats.LogNormal{Median: 120, Sigma: 1},
	})
	if len(jobs) < 100 {
		t.Fatalf("job stream too small: %d", len(jobs))
	}
	_, m, err := Simulate(Config{Nodes: 9688, BBNodes: 288, OverlapStaging: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanUtilization <= 0 || m.MeanUtilization > 1 {
		t.Errorf("utilization = %v outside (0,1]", m.MeanUtilization)
	}
	if m.Jobs != len(jobs) {
		t.Errorf("completed %d of %d jobs", m.Jobs, len(jobs))
	}
	if m.P95Wait < m.MeanWait/10 || m.MaxWait < m.P95Wait {
		t.Errorf("wait stats inconsistent: mean %v p95 %v max %v", m.MeanWait, m.P95Wait, m.MaxWait)
	}
}

func TestFromProfileValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromProfile(workload.Cori(), SourceConfig{Scale: 0})
}

func TestDeterministicSchedule(t *testing.T) {
	mk := func() Metrics {
		jobs := FromProfile(workload.Summit(), SourceConfig{
			Scale: 0.0001, Seed: 5, PeriodSeconds: 7 * 86400,
			ProcsPerNode: 42, MachineNodes: 4608,
		})
		_, m, err := Simulate(Config{Nodes: 4608}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("schedules differ: %+v vs %+v", a, b)
	}
}
