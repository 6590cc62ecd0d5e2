package cluster

import (
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
)

// DefaultMaxInFlightPerBackend bounds concurrent requests the router
// holds open against one replica when the caller does not choose. The
// point is isolation: one stalled replica may absorb at most this many
// router slots before further traffic fails over, instead of soaking up
// the router's whole capacity one hung request at a time.
const DefaultMaxInFlightPerBackend = 32

// Backend is one ioserved replica as the router sees it: the base URL,
// the circuit breaker guarding it, a bounded in-flight slot pool, and the
// health bit the active prober maintains.
type Backend struct {
	// Name labels the replica in headers, errors, and metrics: the URL's
	// host:port.
	Name string

	base    *url.URL
	breaker *Breaker
	slots   chan struct{}

	// healthy is the prober's verdict (true until the first probe says
	// otherwise — a new backend is assumed good so the cluster serves
	// before the first probe cycle completes). Passive accounting also
	// clears it on hard network errors, so routing reacts a probe period
	// earlier.
	healthy atomic.Bool
	// probing serializes active probes so a stalled backend cannot pile
	// up probe goroutines.
	probing atomic.Bool
}

func newBackend(raw string, breakerCfg BreakerConfig, maxInFlight int) (*Backend, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlightPerBackend
	}
	b := &Backend{
		Name:    u.Host,
		base:    u,
		breaker: NewBreaker(breakerCfg),
		slots:   make(chan struct{}, maxInFlight),
	}
	b.healthy.Store(true)
	return b, nil
}

// URL resolves a path-and-query against the backend's base URL.
func (b *Backend) URL(pathAndQuery string) string {
	return strings.TrimSuffix(b.base.String(), "/") + pathAndQuery
}

// Healthy reports the prober's current verdict.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// BreakerState reports the guarding breaker's position.
func (b *Backend) BreakerState() BreakerState { return b.breaker.State() }

// acquire claims an in-flight slot without blocking; the router fails
// over rather than queue behind a saturated replica.
func (b *Backend) acquire() bool {
	select {
	case b.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *Backend) release() { <-b.slots }

// reportOutcome feeds passive failure accounting from live traffic into
// the breaker and the health bit: hard failures (network errors, 5xx)
// count against the breaker and immediately mark the backend unhealthy
// on network-level errors, successes restore both.
func (b *Backend) reportOutcome(class outcomeClass) {
	switch class {
	case outcomeOK:
		b.breaker.Success()
		b.healthy.Store(true)
	case outcomeNetErr:
		b.breaker.Failure()
		b.healthy.Store(false)
	case outcomeServerErr:
		b.breaker.Failure()
	case outcomeBusy:
		// 429 from the replica's own load shedding: the replica is alive
		// and answering — not a breaker failure, just "go elsewhere".
		b.breaker.Success()
	case outcomeAbandoned:
		// The caller hung up mid-attempt: no verdict on the replica, but
		// a half-open trial the attempt claimed must be handed back.
		b.breaker.Release()
	}
}

// outcomeClass buckets one upstream attempt for accounting and failover.
type outcomeClass int

const (
	outcomeOK outcomeClass = iota
	outcomeNetErr
	outcomeServerErr
	outcomeBusy
	outcomeAbandoned
)

func classifyStatus(status int) outcomeClass {
	switch {
	case status == http.StatusTooManyRequests:
		return outcomeBusy
	case status >= 500:
		return outcomeServerErr
	default:
		return outcomeOK
	}
}
