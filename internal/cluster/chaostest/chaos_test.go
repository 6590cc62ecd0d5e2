package chaostest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iolayers/internal/cluster"
	"iolayers/internal/core"
	"iolayers/internal/darshan"
	"iolayers/internal/darshan/logfmt"
	"iolayers/internal/iosim"
	"iolayers/internal/iosim/faults"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/serve"
	"iolayers/internal/units"
)

// corpusDir writes n small hand-built Summit logs into a temp directory,
// seeded by salt so each dataset's corpus is distinct.
func corpusDir(t *testing.T, n, salt int) string {
	t.Helper()
	dir := t.TempDir()
	sys := systems.NewSummit()
	for i := 0; i < n; i++ {
		rt := darshan.NewRuntime(darshan.JobHeader{
			JobID: uint64(1000 + salt*100 + i), UserID: uint64(1 + i%3), NProcs: 8,
			StartTime: int64(i) * 3600, EndTime: int64(i)*3600 + 1800,
			Metadata: map[string]string{"domain": "Physics"},
		})
		c := iosim.NewClient(sys, rt, rand.New(rand.NewPCG(uint64(salt*1000+i), 7)))
		c.Write(darshan.ModulePOSIX, fmt.Sprintf("/gpfs/alpine/phys/out%d_%d.h5", salt, i), 0, units.MiB, 0)
		c.Read(darshan.ModuleSTDIO, "/mnt/bb/phys/run.log", 0, 64*units.KiB, 0)
		path := filepath.Join(dir, fmt.Sprintf("job%05d.darshan", i))
		if err := logfmt.WriteFile(path, rt.Finalize()); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wallClock is the soak's cluster.Clock: the router and the valves read
// the same wall time.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// stepClock stands still until the test moves it. Valves only read Now;
// After is the wall clock's, for the interface.
type stepClock struct {
	wallClock
	ns atomic.Int64
}

func (c *stepClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// newReplica starts one in-process ioserved behind replica i's valve.
func newReplica(t *testing.T, ctrl *Controller, i int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(ctrl.Wrap(i, serve.New(serve.Config{Store: serve.NewStore()}).Handler()))
	t.Cleanup(ts.Close)
	return ts
}

// The referee. Three in-process replicas behind a router, datasets
// ingested through the router's fan-out, then a seeded fault schedule
// kills and stalls replicas while concurrent clients hammer the query
// API. The verdict:
//
//  1. Zero wrong answers, ever: every 200 body is byte-identical to the
//     single-node rendering of that dataset.
//  2. Bounded errors during faults: with replication 2 and one replica
//     at a time faulted, most queries still succeed via failover.
//  3. Full recovery: once the schedule ends and the valves reopen, the
//     cluster returns to sustained error-free service.
func TestClusterSurvivesSeededChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is a multi-second soak")
	}
	const nReplicas = 3
	datasets := map[string]string{
		"alpha": corpusDir(t, 4, 1),
		"beta":  corpusDir(t, 3, 2),
		"gamma": corpusDir(t, 5, 3),
	}

	// Single-node truth: one store holding every dataset, rendered by the
	// same code paths the replicas use.
	truth := serve.NewStore()
	sys := systems.NewSummit()
	for name, dir := range datasets {
		if _, _, err := truth.Ingest(context.Background(), name, sys, dir, core.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	truthSrv := httptest.NewServer(serve.New(serve.Config{Store: truth}).Handler())
	defer truthSrv.Close()
	want := map[string]string{} // URL path → expected body
	paths := []string{}
	for name := range datasets {
		paths = append(paths, "/v1/report/"+name+"?format=json")
	}
	paths = append(paths, "/v1/compare/alpha/beta", "/v1/compare/beta/gamma")
	client := &http.Client{Timeout: 5 * time.Second}
	for _, p := range paths {
		resp, err := client.Get(truthSrv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("truth %s: %d %s", p, resp.StatusCode, body)
		}
		want[p] = string(body)
	}

	// The chaos schedule: three windows over ~1.5s of wall time —
	// outage, stall (a wedged replica, via a MetaStorm window), outage —
	// each hitting exactly one replica (findSeed guarantees it), with at
	// least two distinct replicas hit across the run. The valves pass
	// everything until the controller starts.
	sched := faults.Schedule{
		Windows: []faults.Window{
			{Kind: faults.Outage, Start: 0.10, End: 0.55, ServerFrac: 0.34},
			{Kind: faults.MetaStorm, Start: 0.65, End: 1.05, ServerFrac: 0.34, LatencyFactor: 10},
			{Kind: faults.Outage, Start: 1.10, End: 1.50, ServerFrac: 0.34},
		},
	}
	seed, ok := findSeed(sched, nReplicas)
	if !ok {
		t.Fatal("no seed gives one-replica-per-window membership")
	}
	sched.Seed = seed
	clock := wallClock{}
	ctrl := newController(&sched, nReplicas, clock)

	// The cluster under test: fast failover timings so the whole soak
	// fits in a few seconds, on the valves' clock.
	var urls []string
	for i := 0; i < nReplicas; i++ {
		urls = append(urls, newReplica(t, ctrl, i).URL)
	}
	router, err := cluster.NewRouter(cluster.Config{
		Replicas:              urls,
		Replication:           2,
		AttemptTimeout:        200 * time.Millisecond,
		IngestTimeout:         30 * time.Second,
		FailoverBackoff:       2 * time.Millisecond,
		ProbeInterval:         25 * time.Millisecond,
		ProbeTimeout:          50 * time.Millisecond,
		MaxInFlightPerBackend: 16,
		Breaker: cluster.BreakerConfig{
			Threshold: 2,
			OpenBase:  50 * time.Millisecond,
			OpenMax:   400 * time.Millisecond,
		},
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	defer router.Close()
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()

	// Ingest every dataset through the router: the fan-out must land each
	// one on both of its owners.
	for name, dir := range datasets {
		body := fmt.Sprintf(`{"dataset":%q,"system":"summit","source":%q}`, name, dir)
		resp, err := client.Post(routerTS.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s through router: %d %s", name, resp.StatusCode, out)
		}
		if got := strings.Count(string(out), `"replica"`); got != 2 {
			t.Fatalf("ingest %s landed on %d replicas, want 2: %s", name, got, out)
		}
	}

	fetch := func(p string) (int, string, error) {
		resp, err := client.Get(routerTS.URL + p)
		if err != nil {
			return 0, "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), err
	}

	// Phase 1 — calm before: everything answers and matches truth.
	for _, p := range paths {
		status, body, err := fetch(p)
		if err != nil || status != http.StatusOK {
			t.Fatalf("pre-chaos %s: status %d err %v", p, status, err)
		}
		if body != want[p] {
			t.Fatalf("pre-chaos %s: body differs from single-node truth", p)
		}
	}

	// Phase 2 — chaos, on the schedule built above.
	t.Logf("chaos seed %d", seed)
	for wi, w := range sched.Windows {
		for i := 0; i < nReplicas; i++ {
			if ctrl.Affected(wi, i) {
				t.Logf("window %d (%v %.2fs–%.2fs) hits replica %d", wi, w.Kind, w.Start, w.End, i)
			}
		}
	}

	var attempts, successes, wrong atomic.Int64
	ctrl.Start()
	var wg sync.WaitGroup
	stopClients := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopClients:
					return
				default:
				}
				p := paths[(g+i)%len(paths)]
				status, body, err := fetch(p)
				attempts.Add(1)
				if err != nil || status != http.StatusOK {
					continue // an error during chaos is allowed, a lie is not
				}
				successes.Add(1)
				if body != want[p] {
					wrong.Add(1)
					t.Errorf("chaos answer for %s differs from truth (status 200)", p)
				}
			}
		}(g)
	}
	time.Sleep(1700 * time.Millisecond) // past the last window's end
	close(stopClients)
	wg.Wait()

	t.Logf("chaos phase: %d attempts, %d successes, %d wrong",
		attempts.Load(), successes.Load(), wrong.Load())
	if wrong.Load() != 0 {
		t.Fatalf("%d byte-divergent 200s during chaos", wrong.Load())
	}
	if a, s := attempts.Load(), successes.Load(); s*4 < a {
		t.Errorf("only %d/%d queries succeeded during chaos — failover is not carrying the load", s, a)
	}

	// Phase 3 — recovery: with the valves open, the cluster must settle
	// back to sustained zero-error, byte-identical service. Three full
	// clean sweeps in a row, within a deadline generous enough for the
	// prober and breakers to re-admit everyone.
	deadline := time.Now().Add(15 * time.Second)
	clean := 0
	for clean < 3 {
		if time.Now().After(deadline) {
			t.Fatal("cluster did not recover to error-free service in time")
		}
		ok := true
		for _, p := range paths {
			status, body, err := fetch(p)
			if err != nil || status != http.StatusOK || body != want[p] {
				ok = false
				break
			}
		}
		if ok {
			clean++
		} else {
			clean = 0
			time.Sleep(50 * time.Millisecond)
		}
	}

	// And the listing is whole again: every dataset present.
	status, body, err := fetch("/v1/datasets")
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-chaos datasets: %d %v", status, err)
	}
	for name := range datasets {
		if !bytes.Contains([]byte(body), []byte(`"name": "`+name+`"`)) {
			t.Errorf("post-chaos listing is missing %q", name)
		}
	}
}

// The valve itself, stepped through a schedule on a fake clock: Pass
// before the first window, Down at the outage's first instant, Stall (it
// hangs until the client quits) at the storm's, and Pass again at the
// last window's end — each edge exact, with nothing running between
// requests.
func TestValveMechanics(t *testing.T) {
	sched := faults.Schedule{Windows: []faults.Window{
		{Kind: faults.Outage, Start: 1, End: 2, ServerFrac: 1},
		{Kind: faults.MetaStorm, Start: 2, End: 3, ServerFrac: 1, LatencyFactor: 10},
	}}
	clock := &stepClock{}
	ctrl := newController(&sched, 1, clock)
	ts := httptest.NewServer(ctrl.Wrap(0, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "alive")
	})))
	defer ts.Close()
	client := &http.Client{Timeout: 300 * time.Millisecond}
	passes := func(when string) {
		t.Helper()
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "alive" {
			t.Fatalf("%s: body %q", when, body)
		}
	}

	ctrl.Start()
	clock.advance(time.Second - time.Nanosecond)
	passes("just before the outage")

	clock.advance(time.Nanosecond)
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("down valve served a response")
	}

	clock.advance(time.Second)
	start := time.Now()
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("stalled valve served a response")
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Errorf("stall gave up after %v — it aborted instead of hanging", elapsed)
	}

	clock.advance(time.Second)
	passes("at the last window's end")
}
