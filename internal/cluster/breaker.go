package cluster

import (
	"math/rand/v2"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// The three breaker states.
const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the open interval elapses.
	BreakerOpen
	// BreakerHalfOpen: one trial request at a time probes the backend;
	// success closes the breaker, failure re-opens it with a longer
	// interval.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker defaults, chosen for a router fronting query replicas: trip
// fast (a dark replica fails instantly and repeatedly), retry soon (most
// flaps are restarts measured in seconds), and cap the backoff so a
// recovered replica is never benched for long.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerOpenBase  = 500 * time.Millisecond
	DefaultBreakerOpenMax   = 15 * time.Second
)

// BreakerConfig configures a Breaker. The zero value means defaults.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip a closed breaker
	// (0 means DefaultBreakerThreshold).
	Threshold int
	// OpenBase is the first open interval; each consecutive re-open
	// doubles it (0 means DefaultBreakerOpenBase).
	OpenBase time.Duration
	// OpenMax caps the doubling (0 means DefaultBreakerOpenMax).
	OpenMax time.Duration
	// Jitter returns a uniform value in [0, 1) used to spread open
	// intervals over [1/2, 1) of the nominal duration, so a fleet of
	// breakers tripped by the same outage does not retry in lockstep.
	// Nil means math/rand/v2; tests inject a deterministic source.
	Jitter func() float64
	// Now is the clock (nil means time.Now); tests inject a fake.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.OpenBase <= 0 {
		c.OpenBase = DefaultBreakerOpenBase
	}
	if c.OpenMax <= 0 {
		c.OpenMax = DefaultBreakerOpenMax
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker: Allow gates each request, Success and
// Failure report outcomes. Safe for concurrent use. The state machine is
// the classic three-state one; the only liberty taken is that a Success
// reported from any state closes the breaker immediately — a request (or
// active health probe) that genuinely reached the backend is the
// strongest evidence available, stronger than waiting out the interval.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	fails     int       // consecutive failures while closed
	trips     int       // consecutive opens without an intervening close
	openUntil time.Time // when an open breaker admits its next trial
	probing   bool      // a half-open trial is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed now. A true return from an
// open or half-open breaker claims the single trial slot: the caller must
// report the outcome with Success or Failure, which releases it.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Before(b.openUntil) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a request that reached the backend and got a coherent
// answer. Closes the breaker from any state and resets the backoff.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.fails = 0
	b.trips = 0
	b.state = BreakerClosed
}

// Failure reports a request that could not get an answer (network error,
// timeout, 5xx). Trips a closed breaker at the threshold and re-opens a
// half-open one with doubled backoff; a failure reported while already
// open (a straggler from before the trip) is absorbed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	}
}

// Release hands back a trial slot claimed by Allow without a verdict: the
// request was abandoned before the backend could answer, so the next
// Allow may claim the trial afresh.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker for a jittered interval in [d/2, d), where d
// doubles with each consecutive open up to OpenMax. Called with mu held.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.fails = 0
	d := b.cfg.OpenBase
	for i := 0; i < b.trips && d < b.cfg.OpenMax; i++ {
		d *= 2
	}
	if d > b.cfg.OpenMax {
		d = b.cfg.OpenMax
	}
	b.trips++
	jittered := d/2 + time.Duration(b.cfg.Jitter()*float64(d/2))
	b.openUntil = b.cfg.Now().Add(jittered)
}

// State returns the breaker's current position (an open breaker whose
// interval has elapsed still reports open until an Allow promotes it).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
