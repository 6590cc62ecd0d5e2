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

// Valve sits between the router and one replica and simulates that
// replica's death or wedging on command. Aborting via http.ErrAbortHandler
// resets the connection mid-request, which is exactly what a kill -9
// looks like from the client side.
type Valve struct {
	mode atomic.Int32
}

// Set moves the valve.
func (v *Valve) Set(m ValveMode) { v.mode.Store(int32(m)) }

// Mode reads the valve's position.
func (v *Valve) Mode() ValveMode { return ValveMode(v.mode.Load()) }

// Wrap interposes the valve in front of a replica's handler.
func (v *Valve) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch v.Mode() {
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

// Controller drives a set of valves from a faults.Schedule: window times
// are interpreted as wall-clock seconds from Start, and per-replica
// membership in each window comes from the schedule's seed via
// faults.Injector.Affected — the same deterministic membership the
// simulator uses. Outage windows slam the valve to Down; Slowdown and
// MetaStorm windows set Stall (a chaos valve cannot serve "slower", so
// every degradation that is not an outage manifests as a wedge).
type Controller struct {
	sched  *faults.Schedule
	inj    *faults.Injector
	valves []*Valve
	tick   time.Duration

	stop chan struct{}
	done chan struct{}
}

// newController binds a schedule to the valves. tick is the scan cadence
// (how quickly a window edge takes effect); 0 means 5ms.
func newController(sched *faults.Schedule, valves []*Valve, tick time.Duration) *Controller {
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	return &Controller{
		sched:  sched,
		inj:    faults.NewInjector(sched, "cluster", len(valves)),
		valves: valves,
		tick:   tick,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Affected reports whether replica i participates in window wi — exposed
// so the referee can precompute the fault plan it is about to enforce.
func (c *Controller) Affected(wi, i int) bool { return c.inj.Affected(wi, i) }

// Start begins enforcing the schedule, with window time zero = now.
// Returns the time used as zero.
func (c *Controller) Start() time.Time {
	start := time.Now()
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.tick)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-ticker.C:
				c.apply(now.Sub(start).Seconds())
			}
		}
	}()
	return start
}

// apply resolves every valve's position at schedule time t.
func (c *Controller) apply(t float64) {
	for i, v := range c.valves {
		mode := Pass
		for wi, w := range c.sched.Windows {
			if t < w.Start || t >= w.End || !c.inj.Affected(wi, i) {
				continue
			}
			if w.Kind == faults.Outage {
				mode = Down
				break // Down dominates
			}
			mode = Stall
		}
		v.Set(mode)
	}
}

// Stop ends enforcement and restores every valve to Pass.
func (c *Controller) Stop() {
	close(c.stop)
	<-c.done
	for _, v := range c.valves {
		v.Set(Pass)
	}
}

// After reports whether the schedule has no window active or pending at
// time t (seconds from Start) — i.e. the chaos is over.
func (c *Controller) After(t float64) bool {
	for _, w := range c.sched.Windows {
		if t < w.End {
			return false
		}
	}
	return true
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
