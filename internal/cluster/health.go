package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"iolayers/internal/obsv"
)

// Prober defaults: fast enough that a flapped replica is benched within a
// second, slow enough to be free.
const (
	DefaultProbeInterval = 1 * time.Second
	DefaultProbeTimeout  = 1 * time.Second
)

// probePath is what the prober GETs: readiness, not liveness — a replica
// that is alive but still replaying its lake must not receive traffic yet.
const probePath = "/readyz"

// prober actively health-checks every backend on a fixed cadence. Probe
// results flow into the same accounting live traffic uses (the health bit
// and the breaker), so a replica with no traffic still recovers: the
// probe is the trial request its breaker is waiting for. Probes go out
// through the router's own client, so Config.Transport carries them too.
type prober struct {
	backends []*Backend
	client   *http.Client
	clock    Clock
	timeout  time.Duration
	interval time.Duration
	metrics  probeMetrics

	// ctx is cancelled by close; a probe it cuts short is no verdict.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// probeMetrics are the prober's counters; nil handles are the disabled
// state, per the obsv convention.
type probeMetrics struct {
	ok   *obsv.Counter
	fail *obsv.Counter
}

func newProber(backends []*Backend, client *http.Client, clock Clock, timeout, interval time.Duration, m probeMetrics) *prober {
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &prober{
		backends: backends,
		client:   client,
		clock:    clock,
		timeout:  timeout,
		interval: interval,
		metrics:  m,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
}

// run sweeps until close. A sweep starts interval after the previous one
// started, or as soon as that one finishes if it took longer.
func (p *prober) run() {
	defer close(p.done)
	for p.ctx.Err() == nil {
		next := p.clock.After(p.interval)
		p.sweep()
		select {
		case <-p.ctx.Done():
		case <-next:
		}
	}
}

// sweep probes every backend at once, so one stalled replica delays no
// other's verdict, and returns when every probe has finished.
func (p *prober) sweep() {
	var wg sync.WaitGroup
	for _, be := range p.backends {
		wg.Add(1)
		go func(be *Backend) {
			defer wg.Done()
			p.probe(be)
		}(be)
	}
	wg.Wait()
}

func (p *prober) probe(be *Backend) {
	ctx, cancel := context.WithTimeout(p.ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, be.URL(probePath), nil)
	if err != nil {
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		if p.ctx.Err() != nil {
			return // the router is closing, which says nothing about the replica
		}
		p.metrics.fail.Add(1)
		be.healthy.Store(false)
		be.breaker.Failure()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Not ready (503 during boot recovery or drain) or any other
		// surprise: bench the replica but leave the breaker alone — the
		// process is alive and answering, it just asked not to be routed
		// to.
		p.metrics.fail.Add(1)
		be.healthy.Store(false)
		return
	}
	p.metrics.ok.Add(1)
	be.healthy.Store(true)
	be.breaker.Success()
}

// close cancels the probes in flight and returns once the sweep holding
// them has finished: after close, no probe changes a backend's state.
func (p *prober) close() {
	p.cancel()
	<-p.done
}
