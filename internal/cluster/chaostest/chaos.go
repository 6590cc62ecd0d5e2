// Package chaostest is the cluster's referee: a deterministic chaos
// harness that stands up in-process ioserved replicas behind a router,
// then kills, stalls, and restores them on a seeded schedule while
// concurrent clients verify every answer. It reuses the fault-schedule
// discipline of internal/iosim/faults — explicit windows, seed-derived
// membership — so a failing run reproduces from its seed.
//
// The correctness contract it referees is absolute: a router response
// with status 200 must be byte-identical to the single-node rendering of
// the same dataset, no matter which replicas were dark when it was
// served. Errors are allowed while faults are active (bounded below by a
// liveness floor), and after the schedule ends the cluster must return
// to sustained zero-error service.
package chaostest

import (
	"net/http"
	"sync/atomic"
	"time"

	"iolayers/internal/cluster"
	"iolayers/internal/iosim/faults"
)

// ValveMode is what a valve does to traffic passing through it.
type ValveMode int32

// The three valve positions.
const (
	// Pass: traffic flows to the replica untouched.
	Pass ValveMode = iota
	// Down: every connection is aborted immediately — the replica looks
	// killed (connection reset) without tearing down the listener.
	Down
	// Stall: requests hang until the client gives up — the replica looks
	// wedged (accepting connections, answering nothing).
	Stall
)

// Controller drives one valve per replica from a faults.Schedule: window
// times are seconds on the clock since Start, and per-replica membership
// in each window comes from the schedule's seed via
// faults.Injector.Affected — the same deterministic membership the
// simulator uses. Outage windows put the valve Down; Slowdown and
// MetaStorm windows Stall it (a chaos valve cannot serve "slower", so
// every degradation that is not an outage manifests as a wedge). A valve
// decides its mode when a request arrives, so a window edge takes effect
// exactly and nothing runs between requests.
type Controller struct {
	sched *faults.Schedule
	inj   *faults.Injector
	clock cluster.Clock
	start atomic.Pointer[time.Time] // nil until Start: every valve passes
}

// newController binds a schedule over n replicas to a clock — the one
// the router under test reads.
func newController(sched *faults.Schedule, n int, clock cluster.Clock) *Controller {
	return &Controller{sched: sched, inj: faults.NewInjector(sched, "cluster", n), clock: clock}
}

// Affected reports whether replica i participates in window wi — exposed
// so the referee can log the fault plan it is about to enforce.
func (c *Controller) Affected(wi, i int) bool { return c.inj.Affected(wi, i) }

// Start begins enforcing the schedule, with window time zero = now.
func (c *Controller) Start() {
	now := c.clock.Now()
	c.start.Store(&now)
}

// mode resolves replica i's valve position at the clock's now.
func (c *Controller) mode(i int) ValveMode {
	start := c.start.Load()
	if start == nil {
		return Pass
	}
	t := c.clock.Now().Sub(*start).Seconds()
	mode := Pass
	for wi, w := range c.sched.Windows {
		if t < w.Start || t >= w.End || !c.inj.Affected(wi, i) {
			continue
		}
		if w.Kind == faults.Outage {
			return Down // Down dominates
		}
		mode = Stall
	}
	return mode
}

// Wrap interposes replica i's valve in front of its handler. Aborting via
// http.ErrAbortHandler resets the connection mid-request, which is
// exactly what a kill -9 looks like from the client side.
func (c *Controller) Wrap(i int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch c.mode(i) {
		case Down:
			panic(http.ErrAbortHandler)
		case Stall:
			<-r.Context().Done() // hang until the client abandons us
			panic(http.ErrAbortHandler)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// findSeed searches for a schedule seed under which every window affects
// exactly one of n replicas — the harness's "at most one replica down at
// a time (per window)" guarantee — and at least two distinct replicas are
// hit across the schedule, so failover is actually exercised in both
// directions. Membership is a pure function of (seed, layer, window,
// replica), so the returned seed reproduces the same fault plan forever.
func findSeed(sched faults.Schedule, n int) (uint64, bool) {
	for seed := uint64(1); seed < 10_000; seed++ {
		sched.Seed = seed
		inj := faults.NewInjector(&sched, "cluster", n)
		hit := map[int]bool{}
		ok := true
		for wi := range sched.Windows {
			count, who := 0, -1
			for i := 0; i < n; i++ {
				if inj.Affected(wi, i) {
					count++
					who = i
				}
			}
			if count != 1 {
				ok = false
				break
			}
			hit[who] = true
		}
		if ok && len(hit) >= 2 {
			return seed, true
		}
	}
	return 0, false
}
