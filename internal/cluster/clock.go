package cluster

import "time"

// Clock is the router's one source of time: breakers, the prober's
// cadence and the failover backoff read it, so a test that fakes it
// drives every timer the router has (sim_test.go). Attempt and probe
// deadlines are not on it: they are context deadlines on wall time.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// wallClock is the Clock a nil Config.Clock means.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
