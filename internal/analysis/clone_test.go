package analysis

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"iolayers/internal/darshan"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/units"
)

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	sys := systems.NewSummit()
	a := NewAggregator(sys)
	for i := 0; i < 5; i++ {
		a.AddLog(buildLog(t, sys, uint64(100+i), 8, "Physics", func(c *iosim.Client) {
			c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/p/f%d", i), 0, units.MiB, 0)
			c.Read(darshan.ModuleSTDIO, "/mnt/bb/p/scratch.log", 0, 64*units.KiB, 0)
		}))
	}
	clone := a.Clone()
	if clone.SystemName() != a.SystemName() {
		t.Fatalf("clone system = %q, want %q", clone.SystemName(), a.SystemName())
	}
	before := report2string(t, a)
	if got := report2string(t, clone); got != before {
		t.Error("clone renders a different report than its source")
	}
	if !bytes.Equal(encodeState(t, clone.State()), encodeState(t, a.State())) {
		t.Error("clone holds a different state than its source")
	}

	// Diverge the clone; the source must not move.
	clone.AddLog(buildLog(t, sys, 999, 4, "Biology", func(c *iosim.Client) {
		c.Write(darshan.ModulePOSIX, "/gpfs/alpine/b/new.h5", 0, 10*units.MiB, 0)
	}))
	if got := report2string(t, a); got != before {
		t.Error("mutating the clone altered the source aggregator")
	}
	if clone.Logs() != a.Logs()+1 {
		t.Errorf("clone logs = %d, source = %d", clone.Logs(), a.Logs())
	}
}

// TestConcurrentCloneMergeAndRead exercises the copy-on-write discipline
// ioserved relies on: readers render reports from a frozen aggregator while
// a writer clones it, folds new logs into the clone, and publishes the
// clone — all concurrently. Run under -race this proves snapshot reads
// never share mutable state with the in-progress merge.
func TestConcurrentCloneMergeAndRead(t *testing.T) {
	sys := systems.NewSummit()
	base := NewAggregator(sys)
	for i := 0; i < 3; i++ {
		base.AddLog(buildLog(t, sys, uint64(i+1), 8, "Physics", func(c *iosim.Client) {
			c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/p/base%d", i), 0, units.MiB, 0)
		}))
	}

	const readers = 8
	const generations = 4
	var frozen sync.Map // generation counter → *Aggregator, published frozen
	frozen.Store(0, base)
	latest := func() *Aggregator {
		var a *Aggregator
		frozen.Range(func(_, v any) bool { a = v.(*Aggregator); return true })
		return a
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := latest().Report()
				if rep.Summary.Logs == 0 {
					t.Error("reader saw an empty report")
					return
				}
			}
		}()
	}

	// Writer: clone → fold → publish, never touching a published aggregator.
	cur := base
	for g := 1; g <= generations; g++ {
		next := cur.Clone()
		for i := 0; i < 3; i++ {
			next.AddLog(buildLog(t, sys, uint64(100*g+i), 8, "Chemistry", func(c *iosim.Client) {
				c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/c/g%d_%d", g, i), 0, units.MiB, 0)
			}))
		}
		// Merge path too: fold a worker-private aggregator into the clone,
		// as a parallel ingest pass would.
		worker := NewAggregator(sys)
		worker.AddLog(buildLog(t, sys, uint64(1000+g), 4, "Physics", func(c *iosim.Client) {
			c.Read(darshan.ModulePOSIX, "/gpfs/alpine/p/shared.h5", 0, units.MiB, 0)
		}))
		next.Merge(worker)
		frozen.Store(g, next)
		cur = next
	}
	close(stop)
	wg.Wait()

	if want := int64(3 + generations*4); cur.Logs() != want {
		t.Errorf("final generation has %d logs, want %d", cur.Logs(), want)
	}
}

func report2string(t *testing.T, a *Aggregator) string {
	t.Helper()
	r := a.Report()
	return fmt.Sprintf("%+v|%+v|%v|%v", r.Summary, r.Exclusivity, r.MonthlyLogs, len(r.Domains))
}
