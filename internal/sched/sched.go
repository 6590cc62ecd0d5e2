// Package sched is a discrete-event batch scheduler for the simulated
// machines: jobs arrive over the campaign period, queue, and run under
// EASY backfill on a fixed node pool, with Cray DataWarp-style burst-buffer
// allocations whose stage-in copies overlap queue wait — the scheduler
// integration the paper's §2.1.2 credits for CBB's usability ("end users
// can define directives ... enabling end users to stage directories and
// files in/out CBB before a job starts ... without user involvement").
//
// The scheduler supplies the production-load context the paper's title
// refers to: machine utilization over time, queue statistics, and the
// measurable benefit of overlapping staging with queueing.
package sched

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
)

// Job is one batch job's resource request.
type Job struct {
	// ID is an arbitrary job identifier.
	ID uint64
	// Submit is the submission time in seconds since campaign start.
	Submit float64
	// Nodes is the compute-node request; must be positive.
	Nodes int
	// Runtime is the execution duration once started, in seconds.
	Runtime float64
	// BBNodes is the burst-buffer node allocation (0 = none requested).
	BBNodes int
	// StageInSeconds is the duration of the scheduler-driven stage-in copy
	// tied to the burst-buffer allocation (0 = nothing to stage).
	StageInSeconds float64
}

// Config describes the machine being scheduled.
type Config struct {
	// Nodes is the compute-node pool size.
	Nodes int
	// BBNodes is the burst-buffer node pool (0 = machine has none).
	BBNodes int
	// OverlapStaging selects DataWarp behavior: stage-in runs while the job
	// queues, holding only burst-buffer nodes. When false the stage-in runs
	// after allocation, holding the job's compute nodes idle — what a user
	// doing `cp` at the top of their job script gets.
	OverlapStaging bool
}

// Placement records one job's scheduling outcome.
type Placement struct {
	Job   Job
	Start float64 // compute start (after any inline staging)
	End   float64
	Wait  float64 // Start − Submit
	// StageHidden is the stage-in time that overlapped queue wait and so
	// cost the job nothing.
	StageHidden float64
}

// Metrics summarizes a schedule.
type Metrics struct {
	Jobs            int
	Makespan        float64
	MeanWait        float64
	P95Wait         float64
	MaxWait         float64
	MeanUtilization float64 // busy node-seconds / (nodes × makespan)
	PeakQueueDepth  int
	// StageHiddenTotal is the aggregate staging time hidden behind queue
	// wait (only nonzero with OverlapStaging).
	StageHiddenTotal float64
}

// event is a scheduler clock event.
type event struct {
	at   float64
	kind int // 0 = submit/ready, 1 = job end
	idx  int
}

type eventHeap []event

func (h eventHeap) Len() int      { return len(h) }
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].kind > h[j].kind // process ends before starts at equal times
}
func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// cancelCheckInterval is how many clock events the simulation loop advances
// between context checks — often enough that cancellation lands promptly,
// rarely enough that the check costs nothing against heap operations.
const cancelCheckInterval = 1024

// SimulateContext schedules jobs under EASY backfill and returns per-job
// placements (in completion order) and aggregate metrics. Jobs larger than
// the machine are rejected with an error. Cancellation stops the event
// loop and returns the placements completed so far, metrics over them, and
// ctx's error. A partial schedule's metrics describe a truncated campaign
// and are not comparable to a complete run's.
func SimulateContext(ctx context.Context, cfg Config, jobs []Job) ([]Placement, Metrics, error) {
	if cfg.Nodes <= 0 {
		return nil, Metrics{}, fmt.Errorf("sched: machine needs nodes, got %d", cfg.Nodes)
	}
	for _, j := range jobs {
		if j.Nodes <= 0 || j.Nodes > cfg.Nodes {
			return nil, Metrics{}, fmt.Errorf("sched: job %d requests %d of %d nodes", j.ID, j.Nodes, cfg.Nodes)
		}
		if j.BBNodes > cfg.BBNodes {
			return nil, Metrics{}, fmt.Errorf("sched: job %d requests %d of %d BB nodes", j.ID, j.BBNodes, cfg.BBNodes)
		}
		if j.Runtime < 0 || j.Submit < 0 || j.StageInSeconds < 0 {
			return nil, Metrics{}, fmt.Errorf("sched: job %d has negative times", j.ID)
		}
	}

	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })

	// ready[i]: earliest compute start permitted by staging.
	ready := make([]float64, len(ordered))
	for i, j := range ordered {
		ready[i] = j.Submit
		if cfg.OverlapStaging && j.BBNodes > 0 {
			// DataWarp: staging starts at submit, holds only BB nodes.
			ready[i] = j.Submit + j.StageInSeconds
		}
	}

	var (
		events    eventHeap
		queue     []int // indices into ordered, FIFO
		freeNodes = cfg.Nodes
		running   = map[int]float64{} // job idx → end time
		place     = make([]Placement, 0, len(ordered))
		busyNS    float64 // node-seconds of compute
		peakQ     int
		now       float64
	)
	for i := range ordered {
		heap.Push(&events, event{at: ready[i], kind: 0, idx: i})
	}

	startJob := func(i int, at float64) {
		j := ordered[i]
		inlineStage := 0.0
		if !cfg.OverlapStaging && j.BBNodes > 0 {
			// The stage runs on the job's allocation before compute.
			inlineStage = j.StageInSeconds
		}
		start := at + inlineStage
		end := start + j.Runtime
		freeNodes -= j.Nodes
		running[i] = end
		heap.Push(&events, event{at: end, kind: 1, idx: i})
		hidden := 0.0
		if cfg.OverlapStaging && j.BBNodes > 0 {
			// Staging time hidden = overlap with what the wait would have
			// been anyway; at minimum zero.
			hidden = minf(j.StageInSeconds, at-j.Submit)
		}
		place = append(place, Placement{
			Job: j, Start: start, End: end,
			Wait:        start - j.Submit,
			StageHidden: hidden,
		})
		busyNS += (end - at) * float64(j.Nodes) // inline staging holds nodes too
	}

	// trySchedule runs EASY backfill over the queue at the current time.
	trySchedule := func() {
		// Start the head while it fits.
		for len(queue) > 0 && ordered[queue[0]].Nodes <= freeNodes {
			startJob(queue[0], now)
			queue = queue[1:]
		}
		if len(queue) == 0 {
			return
		}
		// Head reservation: the earliest time enough nodes will be free.
		head := ordered[queue[0]]
		type rel struct {
			at    float64
			nodes int
		}
		var rels []rel
		for i, end := range running {
			rels = append(rels, rel{end, ordered[i].Nodes})
		}
		sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
		avail := freeNodes
		reserveAt := now
		for _, r := range rels {
			if avail >= head.Nodes {
				break
			}
			avail += r.nodes
			reserveAt = r.at
		}
		// Nodes free right now that the head cannot use until reserveAt may
		// backfill jobs that finish by then or fit beside the reservation.
		for qi := 1; qi < len(queue); {
			cand := ordered[queue[qi]]
			fits := cand.Nodes <= freeNodes
			endsInTime := now+backfillSpan(cfg, cand) <= reserveAt
			if fits && endsInTime {
				startJob(queue[qi], now)
				queue = append(queue[:qi], queue[qi+1:]...)
				continue
			}
			qi++
		}
	}

	var stopErr error
	for tick := 0; events.Len() > 0; tick++ {
		if tick%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				stopErr = err
				break
			}
		}
		ev := heap.Pop(&events).(event)
		now = ev.at
		switch ev.kind {
		case 0:
			queue = append(queue, ev.idx)
			if len(queue) > peakQ {
				peakQ = len(queue)
			}
		case 1:
			freeNodes += ordered[ev.idx].Nodes
			delete(running, ev.idx)
		}
		trySchedule()
	}

	m := Metrics{Jobs: len(place), PeakQueueDepth: peakQ}
	if len(place) > 0 {
		waits := make([]float64, len(place))
		var waitSum float64
		for i, p := range place {
			waits[i] = p.Wait
			waitSum += p.Wait
			if p.End > m.Makespan {
				m.Makespan = p.End
			}
			if p.Wait > m.MaxWait {
				m.MaxWait = p.Wait
			}
			m.StageHiddenTotal += p.StageHidden
		}
		m.MeanWait = waitSum / float64(len(place))
		sort.Float64s(waits)
		m.P95Wait = waits[int(0.95*float64(len(waits)-1))]
		if m.Makespan > 0 {
			m.MeanUtilization = busyNS / (float64(cfg.Nodes) * m.Makespan)
		}
	}
	return place, m, stopErr
}

// backfillSpan is the wall-clock a backfill candidate would occupy nodes:
// its runtime plus inline staging when staging is not overlapped.
func backfillSpan(cfg Config, j Job) float64 {
	span := j.Runtime
	if !cfg.OverlapStaging && j.BBNodes > 0 {
		span += j.StageInSeconds
	}
	return span
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
