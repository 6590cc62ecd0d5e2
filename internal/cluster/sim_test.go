package cluster

// The cluster layer's referee: a deterministic simulation of the real
// Router over lake-backed serve replicas, on one logical thread, whose
// seed picks a sentence from the operator's grammar, judged by one
// oracle. DESIGN §14.6 has the grammar, the oracle and the repro line.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iolayers/internal/core"
	"iolayers/internal/iosim/systems"
	"iolayers/internal/report"
	"iolayers/internal/serve"
)

// Schedule sizes. TestClusterSim runs seeds 1..simSeeds, and
// TestClusterSimFindsFanoutSkew searches seeds 1..skewSeeds.
const (
	simSeeds        = 16
	skewSeeds       = 32
	simEvents       = 64 // events per schedule, after one ingest per dataset
	simReplicas     = 3
	simMaxFaults    = 2 // replicas down or stalled at once
	simBurst        = 4 // concurrent routed reads in a read burst
	simCorpora      = 4 // distinct sources an ingest picks from
	simCompactEvery = 3 // small, so schedules include compactions
)

var (
	simDatasets = []string{"alpha", "beta", "gamma"} // sorted, as listings are
	simBreaker  = BreakerConfig{Threshold: 2, OpenBase: time.Second, OpenMax: 8 * time.Second}
)

// simClock is the simulation's time. After moves it by d and fires at
// once: the simulation is the only actor, so whoever waits runs next.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *simClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, c.ns.Add(int64(d)))
	return ch
}

func (c *simClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// simReplica is one ioserved. Its lake directory outlives the process;
// lake and handler are nil while it is down. admitted says a sweep has
// found it up since its last fault.
type simReplica struct {
	name, dir         string
	lake              *serve.Lake
	handler           http.Handler
	stalled, admitted bool
}

func (r *simReplica) fine() bool { return r.handler != nil && !r.stalled && r.admitted }

// truthGen is one generation the router acknowledged: its listing row,
// and its single-node /v1/report/{dataset}?format=json and
// /v1/datasets/{dataset}/sources bodies.
type truthGen struct {
	row             serve.DatasetRow
	report, sources string
}

// sim is one run of one seed.
type sim struct {
	t       *testing.T
	seed    uint64
	guard   bool // ingest only while every owner is up and admitted
	corpora []string
	rng     *rand.Rand
	clock   *simClock
	reps    []*simReplica
	router  *Router
	// The oracle: a memory-only store that folds each ingest the router
	// acknowledged, and every generation it published.
	truth *serve.Store
	gens  map[string][]truthGen

	trace, failures []string
	lie             string // the first failure that is a 200 differing from the truth
}

// runSim plays seed's schedule, then settles the cluster and checks it.
func runSim(t *testing.T, corpora []string, seed uint64, guard bool) *sim {
	s := &sim{t: t, seed: seed, guard: guard, corpora: corpora, rng: rand.New(rand.NewPCG(seed, 0x5eed)),
		clock: &simClock{}, truth: serve.NewStore(), gens: map[string][]truthGen{}}
	var urls []string
	for i := 0; i < simReplicas; i++ {
		rep := &simReplica{name: fmt.Sprintf("r%d", i), dir: t.TempDir(), admitted: true}
		s.boot(rep)
		s.reps, urls = append(s.reps, rep), append(urls, "http://"+rep.name)
	}
	var err error
	s.router, err = NewRouter(Config{Replicas: urls, Replication: 2, Breaker: simBreaker, Transport: s, Clock: s.clock,
		// Keyed by the clock, so the concurrent probes of one sweep draw
		// alike whatever order they run in.
		Jitter: func() float64 { return float64(splitmix(seed^uint64(s.clock.Now().UnixNano()))>>11) / (1 << 53) }})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range simDatasets {
		s.trace = append(s.trace, s.ingest(name, i))
	}
	for i := 0; i < simEvents; i++ {
		s.trace = append(s.trace, s.step())
	}
	s.settle()
	return s
}

func (s *sim) fail(lie bool, format string, args ...any) {
	s.failures = append(s.failures, fmt.Sprintf(format, args...))
	if lie && s.lie == "" {
		s.lie = s.failures[len(s.failures)-1]
	}
}

// RoundTrip is the network. A down replica refuses the connection. A
// stalled one fails the request at its deadline, which costs the clock the
// attempt's timeout; a sweep's stalled probes cost one probe timeout,
// charged after the sweep, so concurrent probes all read one time.
func (s *sim) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rep := s.reps[slices.IndexFunc(s.reps, func(r *simReplica) bool { return r.name == req.URL.Host })]
	switch {
	case rep.handler == nil:
		return nil, fmt.Errorf("dial %s: connection refused", rep.name)
	case rep.stalled:
		if req.Method == http.MethodPost {
			s.clock.advance(s.router.ingestTO)
		} else if req.URL.Path != probePath {
			s.clock.advance(s.router.attemptTO)
		}
		return nil, fmt.Errorf("%s: %w", rep.name, context.DeadlineExceeded)
	}
	rec := httptest.NewRecorder()
	rep.handler.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// boot starts a replica on its lake: a restart recovers what it committed.
func (s *sim) boot(rep *simReplica) string {
	lake, err := serve.OpenLake(serve.LakeConfig{Dir: rep.dir, CompactEvery: simCompactEvery})
	var store *serve.Store
	if err == nil {
		if store, err = serve.NewStoreWithLake(lake); err != nil {
			lake.Close()
		}
	}
	if err != nil {
		s.fail(false, "boot %s: %v", rep.name, err)
		return "boot " + rep.name + " failed"
	}
	rep.lake, rep.handler = lake, serve.New(serve.Config{Store: store, IngestWorkers: 1}).Handler()
	return "boot " + rep.name
}

// kill is kill -9: every commit is already fsync'd, so closing the lake's
// handles loses nothing a crash would keep.
func (s *sim) kill(rep *simReplica) string {
	rep.lake.Close()
	rep.lake, rep.handler, rep.stalled, rep.admitted = nil, nil, false, false
	return "kill " + rep.name
}

func (s *sim) stall(rep *simReplica, on bool) string {
	rep.stalled, rep.admitted = on, rep.admitted && !on
	return fmt.Sprintf("stall %s %v", rep.name, on)
}

// where returns the replicas keep accepts, in order.
func (s *sim) where(keep func(*simReplica) bool) []*simReplica {
	return slices.DeleteFunc(slices.Clone(s.reps), func(r *simReplica) bool { return !keep(r) })
}

// faulted counts the replicas down, stalled, or not yet admitted again.
func (s *sim) faulted() int { return len(s.where(func(r *simReplica) bool { return !r.fine() })) }

// pick returns one of xs, chosen by the seed.
func pick[T any](s *sim, xs []T) T { return xs[s.rng.IntN(len(xs))] }

// step plays one event, chosen by weight among those the state allows.
func (s *sim) step() string {
	live := s.where(func(r *simReplica) bool { return r.handler != nil })
	running := s.where(func(r *simReplica) bool { return r.handler != nil && !r.stalled })
	stalled := s.where(func(r *simReplica) bool { return r.handler != nil && r.stalled })
	down := s.where(func(r *simReplica) bool { return r.handler == nil })
	faults := len(stalled) + len(down)
	var ingestable []string
	for _, name := range simDatasets {
		if !s.guard || !slices.ContainsFunc(s.router.Owners(name), func(be *Backend) bool {
			return !s.reps[slices.Index(s.router.backends, be)].fine()
		}) {
			ingestable = append(ingestable, name)
		}
	}
	type event struct {
		weight int
		play   func() string
	}
	var menu []event
	total := 0
	add := func(weight int, ok bool, play func() string) {
		if ok {
			menu, total = append(menu, event{weight, play}), total+weight
		}
	}
	add(8, true, func() string {
		rd := s.pickRead()
		return s.judge(rd, s.get(rd.path))
	})
	add(5, len(ingestable) > 0, func() string { return s.ingest(pick(s, ingestable), s.rng.IntN(simCorpora)) })
	add(1, faults < simMaxFaults && len(live) > 0, func() string { return s.kill(pick(s, live)) })
	add(3, len(down) > 0, func() string { return s.boot(pick(s, down)) })
	add(1, faults < simMaxFaults && len(running) > 0, func() string { return s.stall(pick(s, running), true) })
	add(3, len(stalled) > 0, func() string { return s.stall(pick(s, stalled), false) })
	add(3, true, s.sweep)
	add(2, true, func() string {
		d := time.Duration(1+s.rng.IntN(8)) * simBreaker.OpenBase / 2
		s.clock.advance(d)
		return "tick " + d.String()
	})
	// A burst runs only while no fault is active: its reads all answer
	// from their primaries, so its trace is the same in any interleaving.
	add(1, s.faulted() == 0, s.burst)
	n := s.rng.IntN(total)
	for _, e := range menu {
		if n < e.weight {
			return e.play()
		}
		n -= e.weight
	}
	panic("unreachable")
}

// sweep runs one probe sweep. Every replica it finds up is admitted.
func (s *sim) sweep() string {
	s.router.prober.sweep()
	entry, stalls := "sweep", false
	for i, rep := range s.reps {
		rep.admitted = rep.admitted || rep.handler != nil && !rep.stalled
		stalls = stalls || rep.stalled
		be := s.router.backends[i]
		entry += fmt.Sprintf(" %s:%v/%s", be.Name, be.Healthy(), be.BreakerState())
	}
	if stalls {
		s.clock.advance(s.router.prober.timeout)
	}
	return entry
}

// simRead is one routed read: a report or the source list of one
// dataset, or a compare of two.
type simRead struct {
	path    string
	names   []string
	sources bool
}

func (s *sim) pickRead() simRead {
	a, b := pick(s, simDatasets), pick(s, simDatasets)
	switch s.rng.IntN(4) {
	case 0:
		return simRead{path: "/v1/compare/" + a + "/" + b, names: []string{a, b}}
	case 1:
		return simRead{path: "/v1/datasets/" + a + "/sources", names: []string{a}, sources: true}
	}
	return simRead{path: "/v1/report/" + a + "?format=json", names: []string{a}}
}

func (s *sim) get(path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// burst sends simBurst routed reads at once and judges them in order.
func (s *sim) burst() string {
	reads := make([]simRead, simBurst)
	for i := range reads {
		reads[i] = s.pickRead()
	}
	answers := make([]*httptest.ResponseRecorder, simBurst)
	var wg sync.WaitGroup
	for i, rd := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = s.get(rd.path)
		}()
	}
	wg.Wait()
	entry := "burst"
	for i, rd := range reads {
		entry += " | " + s.judge(rd, answers[i])
	}
	return entry
}

// judge holds one routed read's answer to the oracle and returns its
// trace entry. A 200 must be the truth's bytes at the generations it
// names. Anything else fails only when the truth holds the datasets and
// at most one replica is faulted, which replication 2 must absorb.
func (s *sim) judge(rd simRead, rec *httptest.ResponseRecorder) string {
	entry := fmt.Sprintf("read %s: %d", rd.path, rec.Code)
	if rec.Code != http.StatusOK {
		if s.faulted() <= 1 && !slices.ContainsFunc(rd.names, func(name string) bool { return len(s.gens[name]) == 0 }) {
			s.fail(false, "%s answered %d with at most one replica faulted: %s",
				rd.path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return entry
	}
	var want string
	if len(rd.names) == 1 {
		g := rec.Header().Get("X-Dataset-Generation")
		entry += fmt.Sprintf(" gen %q from %s after %s", g, rec.Header().Get("X-Io-Backend"), rec.Header().Get("X-Io-Attempts"))
		gen, _ := strconv.ParseUint(g, 10, 64)
		truth := s.truthAt(rd.names[0], gen)
		if truth == nil {
			s.fail(true, "%s answered 200 at generation %q, which the router never acknowledged", rd.path, g)
			return entry
		}
		want = truth.report
		if rd.sources {
			want = truth.sources
		}
	} else {
		var doc serve.CompareDoc
		json.Unmarshal(rec.Body.Bytes(), &doc) // undecodable: generation 0, which no ingest acknowledged
		entry += fmt.Sprintf(" gens %d,%d", doc.A.Generation, doc.B.Generation)
		a, b := s.truthAt(rd.names[0], doc.A.Generation), s.truthAt(rd.names[1], doc.B.Generation)
		if a == nil || b == nil {
			s.fail(true, "%s answered 200 at generations %d,%d, not both acknowledged", rd.path, doc.A.Generation, doc.B.Generation)
			return entry
		}
		want = compareBody(a.row, b.row)
	}
	if rec.Body.String() != want {
		s.fail(true, "%s answered 200 with bytes that differ from the truth at the same generation", rd.path)
	}
	return entry
}

func (s *sim) truthAt(name string, gen uint64) *truthGen {
	if gen == 0 || gen > uint64(len(s.gens[name])) {
		return nil
	}
	return &s.gens[name][gen-1]
}

// compareBody is the single-node /v1/compare body. Marshaling the wire
// structs cannot fail.
func compareBody(a, b serve.DatasetRow) string {
	body, _ := serve.CompareDocument(a, b)
	return string(body)
}

// ingest sends one routed ingest. The truth folds it only if the router
// acknowledged it with a 200. With the guard on, every owner is up and
// admitted, so anything else fails the run.
func (s *sim) ingest(name string, corpus int) string {
	body := fmt.Sprintf(`{"dataset":%q,"system":"summit","source":%q}`, name, s.corpora[corpus])
	rec := httptest.NewRecorder()
	s.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
	entry := fmt.Sprintf("ingest %s c%d: %d", name, corpus, rec.Code)
	if rec.Code != http.StatusOK {
		if s.guard {
			s.fail(false, "guarded ingest of %s answered %d: %s", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return entry
	}
	snap, _, err := s.truth.Ingest(context.Background(), name, systems.ByName("summit"), s.corpora[corpus],
		core.IngestOptions{Workers: 1})
	var rendered string
	var sources []byte
	if err == nil {
		rendered, err = report.RenderString(snap.Report, report.Options{Format: report.FormatJSON})
	}
	if err == nil {
		sources, err = serve.MarshalDoc(serve.SourcesOf(snap))
	}
	if err != nil {
		s.t.Fatal(err)
	}
	s.gens[name] = append(s.gens[name], truthGen{serve.RowOf(snap), rendered, string(sources)})
	return entry + fmt.Sprintf(" gen %d", snap.Gen)
}

// settle ends the schedule: every replica is killed and restarted on its
// lake, a sweep admits them all, and the clock passes the longest breaker
// interval. Then every routed report, source list and compare is the
// truth's latest bytes, and the routed listing is the truth's.
func (s *sim) settle() {
	for _, rep := range s.reps {
		if rep.handler != nil {
			s.kill(rep)
		}
		s.boot(rep)
	}
	s.sweep()
	s.clock.advance(simBreaker.OpenMax)
	check := func(path, want string) {
		if rec := s.get(path); rec.Code != http.StatusOK || rec.Body.String() != want {
			s.fail(false, "after recovery %s answered %d at generation %q, not 200 with the truth's latest bytes",
				path, rec.Code, rec.Header().Get("X-Dataset-Generation"))
		}
	}
	var latest []truthGen
	for _, name := range simDatasets {
		if gens := s.gens[name]; len(gens) > 0 {
			latest = append(latest, gens[len(gens)-1])
		}
	}
	rows := []serve.DatasetRow{}
	for i, g := range latest {
		next := latest[(i+1)%len(latest)].row
		check("/v1/report/"+g.row.Name+"?format=json", g.report)
		check("/v1/datasets/"+g.row.Name+"/sources", g.sources)
		check("/v1/compare/"+g.row.Name+"/"+next.Name, compareBody(g.row, next))
		rows = append(rows, g.row)
	}
	listing, _ := serve.MarshalDoc(serve.DatasetsDoc{SchemaVersion: report.SchemaVersion, Datasets: rows}) // cannot fail, as above
	check("/v1/datasets", string(listing))
}

// repro is a failing seed's one-line reproduction.
func (s *sim) repro(test string) string {
	return fmt.Sprintf("repro: go test -run '^%s$/^seed=%d$' ./internal/cluster; events: %s",
		test, s.seed, strings.Join(s.trace, "; "))
}

// simCorpusDirs writes simCorpora fixture corpora of 1..simCorpora logs,
// so a generation folded from the wrong sources renders other bytes.
func simCorpusDirs(t *testing.T) []string {
	dirs := make([]string, simCorpora)
	for c := range dirs {
		dirs[c] = t.TempDir()
		if err := serve.WriteFixture(dirs[c], systems.NewSummit(), c+1, uint64(c+1)); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// The referee, with the ingest guard on: every seed passes the oracle,
// and run twice, plays the same trace to the same verdict. Seeds run in
// parallel; each is its own single-threaded world.
func TestClusterSim(t *testing.T) {
	corpora := simCorpusDirs(t)
	for seed := uint64(1); seed <= simSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s, again := runSim(t, corpora, seed, true), runSim(t, corpora, seed, true)
			if !slices.Equal(s.trace, again.trace) || !slices.Equal(s.failures, again.failures) {
				t.Errorf("seed %d is not deterministic; again: %s", seed, strings.Join(again.trace, "; "))
			}
			for _, f := range s.failures {
				t.Error(f)
			}
			if t.Failed() {
				t.Log(s.repro("TestClusterSim"))
			}
		})
	}
}

// Today's fan-out skew (ROADMAP item 1), pinned as a search that must
// succeed: with the ingest guard off, a fan-out that loses its second
// owner leaves the first a generation ahead, and a read it serves is a
// wrong 200. Once the skew is mended, no seed finds it and the guard goes.
func TestClusterSimFindsFanoutSkew(t *testing.T) {
	corpora := simCorpusDirs(t)
	for seed := uint64(1); seed <= skewSeeds; seed++ {
		found := false
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if s := runSim(t, corpora, seed, false); s.lie != "" {
				found = true
				t.Log(s.lie)
				t.Log(s.repro("TestClusterSimFindsFanoutSkew"))
			}
		})
		if found {
			return
		}
	}
	t.Fatalf("no seed in 1..%d found the fan-out skew", skewSeeds)
}
