package cluster

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// zeroJitter pins every open interval to exactly d/2.
func zeroJitter() float64 { return 0 }

func testBreaker(clock *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold: 3,
		OpenBase:  time.Second,
		OpenMax:   8 * time.Second,
		Jitter:    zeroJitter,
		Now:       clock.now,
	})
}

// The full transition cycle: closed → (threshold failures) → open →
// (interval elapses) → half-open → (trial succeeds) → closed.
func TestBreakerFullCycle(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed/allowing")
	}
	// Two failures: still closed (threshold is 3).
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.State())
	}
	// Third trips it. Open interval = jittered(1s) = 500ms with zero jitter.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
	// Interval not yet elapsed.
	clock.advance(499 * time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker allowed before its interval elapsed")
	}
	// Elapsed: the next Allow promotes to half-open and claims the trial.
	clock.advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("elapsed breaker refused the trial request")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during trial = %v, want half-open", b.State())
	}
	// Only one trial at a time.
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent trial")
	}
	// Trial succeeds: closed again, backoff reset.
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful trial did not close the breaker")
	}
}

// A failed half-open trial re-opens with doubled backoff, capped at
// OpenMax.
func TestBreakerBackoffDoublesAndCaps(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)

	trip := func() {
		for b.State() != BreakerOpen {
			b.Failure()
		}
	}
	trip()
	// Expected jittered intervals with zero jitter: d/2 where d doubles
	// 1s, 2s, 4s, 8s, 8s (capped) → 500ms, 1s, 2s, 4s, 4s.
	for i, want := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second} {
		clock.advance(want - time.Millisecond)
		if b.Allow() {
			t.Fatalf("trip %d: allowed %v early", i, time.Millisecond)
		}
		clock.advance(2 * time.Millisecond)
		if !b.Allow() {
			t.Fatalf("trip %d: refused after interval %v elapsed", i, want)
		}
		b.Failure() // failed trial: re-open, doubled
	}
	// A success anywhere resets the whole ladder.
	clock.advance(4 * time.Second)
	if !b.Allow() {
		t.Fatal("refused after final interval")
	}
	b.Success()
	trip()
	clock.advance(501 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("backoff ladder did not reset after success: first re-open interval is not base again")
	}
}

// A failure reported while already open (a straggler whose request was in
// flight when the breaker tripped) must not extend the interval.
func TestBreakerAbsorbsStragglerFailures(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	until := b.openUntil
	b.Failure()
	b.Failure()
	if !b.openUntil.Equal(until) {
		t.Error("straggler failures moved the open deadline")
	}
}

// Hammer one breaker from many goroutines while the clock advances: the
// race detector referees the locking, and the breaker must end usable
// (this is the concurrent health-flap test — probes and live traffic
// report outcomes simultaneously).
func TestBreakerConcurrentFlaps(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (i+g)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
				if i%50 == 0 {
					clock.advance(100 * time.Millisecond)
				}
				_ = b.State()
			}
		}(g)
	}
	wg.Wait()
	// Settle: one success must always close it.
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("breaker unusable after concurrent flaps")
	}
}

// An abandoned trial (the caller hung up before the backend answered) is
// handed back with no verdict: the breaker stays half-open and the next
// Allow claims the trial afresh instead of waiting on a report that will
// never come.
func TestBreakerReleaseHandsBackTheTrial(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clock.advance(time.Second)
	if !b.Allow() || b.Allow() {
		t.Fatal("want exactly one half-open trial claimed")
	}
	b.Release()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after Release = %v, want half-open (no verdict)", b.State())
	}
	if !b.Allow() {
		t.Fatal("released trial slot was not claimable again")
	}
}
