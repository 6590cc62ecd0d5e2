package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Every test here runs the harness at -smoke size: the full-size run never
// starts under go test.

type smokeKey struct {
	workload string
	trace    bool
	seed     uint64
	rerun    int
}

var (
	smokeMu    sync.Mutex
	smokeCache = map[smokeKey]*runResult{}
	// smokeRoot is one scratch root for every smoke run, so source paths —
	// which the lake stores — have one length.
	smokeRoot string
)

func TestMain(m *testing.M) {
	var err error
	if smokeRoot, err = os.MkdirTemp("", "iobench"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(smokeRoot)
	os.Exit(code)
}

// smoke runs one workload at smoke size, once per key. Passes are by op
// count, so exact-count metrics repeat exactly.
func smoke(t *testing.T, k smokeKey) *runResult {
	t.Helper()
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if r, ok := smokeCache[k]; ok {
		return r
	}
	o := options{workload: k.workload, seed: k.seed, seconds: 1, trace: k.trace, ops: 120, smoke: true,
		flip: -1, workRoot: smokeRoot}
	if isBatch(k.workload) {
		o.ops = 40
	}
	r, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", k.workload, k.trace, err)
	}
	smokeCache[k] = r
	return r
}

// TestSmokeEveryWorkload is the whole harness path — set-up, timed run,
// oracle, traced run, probes, the contract line — on every workload.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			r := smoke(t, smokeKey{w, trace, 11, 0})
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w, trace, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(r.contractLine(), &line); err != nil {
				t.Fatal(err)
			}
			want := contractEndToEnd()
			if trace {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: contract line has %d metrics, want %d", w, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: contract line lacks %s in %s", w, trace, m.Name, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, got.Value)
				}
			}
			for _, m := range endToEnd {
				if _, ok := r.Metrics[m.Name]; !trace && m.on(w) != ok {
					t.Errorf("%s: metric %s present=%v, want %v", w, m.Name, ok, m.on(w))
				}
			}
		}
	}
	hot := smoke(t, smokeKey{wServeHot, true, 11, 0}).Metrics
	churn := smoke(t, smokeKey{wServeChurn, true, 11, 0}).Metrics
	if hot["serve.cache_hit_ratio"] < 0.99 {
		t.Errorf("serve-hot cache hit ratio %v, want >= 0.99", hot["serve.cache_hit_ratio"])
	}
	if churn["serve.cache_hit_ratio"] > 0.5 {
		t.Errorf("serve-churn cache hit ratio %v, want <= 0.5", churn["serve.cache_hit_ratio"])
	}
	for _, m := range []map[string]float64{hot, churn} {
		if m["serve.throttled"] != 0 || m["cluster.failovers"] != 0 || m["cluster.attempts_per_request"] != 1 {
			t.Errorf("throttled %v failovers %v attempts/request %v, want 0, 0, 1",
				m["serve.throttled"], m["cluster.failovers"], m["cluster.attempts_per_request"])
		}
	}
	if _, ok := churn["serve.recover_ms"]; !ok {
		t.Error("serve-churn did not report a recovery time: some dataset did not recover")
	}
}

// TestEveryPerLayerMetricIsMeasured keeps the table honest: a name no
// workload's traced run produces is a dead row.
func TestEveryPerLayerMetricIsMeasured(t *testing.T) {
	for _, m := range perLayer {
		measured := false
		for _, w := range workloadNames {
			_, ok := smoke(t, smokeKey{w, true, 11, 0}).Metrics[m.Name]
			measured = measured || ok
		}
		if !measured {
			t.Errorf("per-layer metric %s is measured on no workload", m.Name)
		}
	}
}

// exactCounts are the metrics that are counts, not times: same seed, same
// value, to the last digit.
var exactCounts = []string{"stored_bytes_per_log", "colfmt.segments_pruned_ratio", "colfmt.bytes_per_log",
	"serve.lake_bytes_per_gen", "cluster.attempts_per_request", "serve.cache_hit_ratio"}

func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a := smoke(t, smokeKey{w, true, 11, 0})
		b := smoke(t, smokeKey{w, true, 11, 1})
		other := smoke(t, smokeKey{w, true, 12, 0})
		if a.OpDigest == "" || a.OpDigest != b.OpDigest {
			t.Errorf("%s: same seed, op-list digests %q and %q", w, a.OpDigest, b.OpDigest)
		}
		if a.OpDigest == other.OpDigest {
			t.Errorf("%s: seeds 11 and 12 gave the same op-list digest", w)
		}
		if other.Failed != 0 || !other.Correct {
			t.Errorf("%s seed 12: %d failed", w, other.Failed)
		}
		for _, name := range exactCounts {
			va, oka := a.Metrics[name]
			vb, okb := b.Metrics[name]
			if oka != okb || va != vb {
				t.Errorf("%s: %s = %v then %v on the same seed", w, name, va, vb)
			}
		}
		if tm := smoke(t, smokeKey{w, false, 11, 0}); tm.OpDigest != a.OpDigest ||
			tm.Metrics["stored_bytes_per_log"] != a.Metrics["stored_bytes_per_log"] {
			t.Errorf("%s: timed and traced runs of one seed disagree on the inputs", w)
		}
	}
}

// TestFlipSelfTest flips one byte of one body and requires the oracle to
// notice: a non-zero exit, failed > 0, fail_ratio > 0.
func TestFlipSelfTest(t *testing.T) {
	for _, w := range []string{wBatchColumnar, wServeHot} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(t.TempDir(), "r.json")
		code := run([]string{"--workload", w, "--seed", "11", "--seconds", "1", "-ops", "30", "--trace", "0",
			"-smoke", "-flip", "3", "-work", t.TempDir(), "-out", out}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s: exit 0 with a flipped byte\n%s", w, stdout.String())
		}
		var r runResult
		if err := readJSON(out, &r); err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 || r.Metrics["fail_ratio"] <= 0 {
			t.Errorf("%s: correct=%v failed=%d fail_ratio=%v after a flipped byte", w, r.Correct, r.Failed, r.Metrics["fail_ratio"])
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) {
			t.Errorf("%s: last line does not say correct:false: %s", w, last)
		}
	}
}

func TestSpanBookkeeping(t *testing.T) {
	shares := map[string][]budgetRow{}
	for _, w := range workloadNames {
		r := smoke(t, smokeKey{w, true, 11, 0})
		if len(r.spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", w)
		}
		self := selfTimes(r.spans)
		rootNS, selfNS, linked := 0.0, 0.0, 0
		for i, s := range r.spans {
			if s.EndNS < s.StartNS {
				t.Fatalf("%s: span %s ends before it starts", w, s.Name)
			}
			if self[i] < 0 {
				t.Errorf("%s: span %s has negative self time %v", w, s.Name, self[i])
			}
			selfNS += self[i]
			if spanLevels[baseName(s.Name)] == 0 {
				rootNS += float64(s.dur())
				if s.Parent != -1 {
					t.Errorf("%s: root span %s has a parent", w, s.Name)
				}
				continue
			}
			if s.Parent < 0 {
				continue // nothing enclosed it; charged nothing
			}
			linked++
			p := r.spans[s.Parent]
			if p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: %s [%d,%d] op %d lies outside its parent %s [%d,%d] op %d",
					w, s.Name, s.StartNS, s.EndNS, s.Op, p.Name, p.StartNS, p.EndNS, p.Op)
			}
			if spanLevels[baseName(p.Name)] != spanLevels[baseName(s.Name)]-1 {
				t.Errorf("%s: %s is a child of %s", w, s.Name, p.Name)
			}
		}
		if linked == 0 {
			t.Errorf("%s: no span found its parent", w)
		}
		if math.Abs(selfNS-rootNS) > 1e-6*rootNS {
			t.Errorf("%s: self times sum to %v ns, roots to %v ns", w, selfNS, rootNS)
		}
		rows, _, _ := budget(r.spans)
		var sum float64
		for _, row := range rows {
			sum += row.Share
		}
		if sum < 0.9 || sum > 1.1 {
			t.Errorf("%s: budget shares sum to %.3f, want 1 ± 0.1", w, sum)
		}
		shares[w] = rows
	}
	// The separation gates: each workload spends its answer where it was
	// built to, and none where it was built to bypass.
	if s := shareOf(shares[wBatchRow], "logfmt."); s < 0.40 {
		t.Errorf("logfmt self time is %.1f%% of a batch-row answer, want >= 40%%", s*100)
	}
	if s := shareOf(shares[wBatchColumnar], "logfmt."); s != 0 {
		t.Errorf("logfmt self time is %.1f%% of a batch-columnar answer, want 0", s*100)
	}
	if s := shareOf(shares[wBatchRow], "colfmt."); s != 0 {
		t.Errorf("colfmt self time is %.1f%% of a batch-row answer, want 0", s*100)
	}
	// From bench/ a miss (render + cache put) and an ingest (decode, clone,
	// merge, Report, lake commit, journal fsync) are each one serve.handler
	// span. The issue's design target, 30% of serve-churn, is what the
	// full-size traced runs measure (README: 30–31%). A few hundred ops at
	// smoke size on a test machine busy with the other packages' tests read
	// anything from 19% to 46%, so the test only requires the separation
	// from serve-hot, five times that workload's ceiling.
	if s := shareOf(shares[wServeChurn], "serve.handler/miss", "serve.handler/ingest"); s < 0.10 {
		t.Errorf("miss + ingest handlers are %.1f%% of a serve-churn answer, want >= 10%%", s*100)
	}
	if s := shareOf(shares[wServeHot], "serve.handler/miss", "serve.handler/ingest"); s > 0.02 {
		t.Errorf("miss + ingest handlers are %.1f%% of a serve-hot answer, want <= 2%%", s*100)
	}
}

func TestSelfTimesSplitAScatter(t *testing.T) {
	// one request, one handler, two upstream calls in flight together
	spans := []span{
		{Name: "request", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "cluster.handler", StartNS: 10, EndNS: 90, Parent: 0},
		{Name: "cluster.upstream", StartNS: 20, EndNS: 60, Parent: 1},
		{Name: "cluster.upstream", StartNS: 20, EndNS: 80, Parent: 1},
	}
	got := selfTimes(spans)
	want := []float64{20, 20, 20, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 ...float64) *resultFile {
		rf := &resultFile{}
		for _, v := range p50 {
			rf.Runs = append(rf.Runs, &runResult{Workload: wServeHot, Metrics: map[string]float64{
				"answer_p50_ms": v, "answers_per_s": 1000 / v, "fail_ratio": 0}})
		}
		return rf
	}
	bounds := boundsFrom(&benchmarkFile{})
	verdict := func(a, b *resultFile, metric string) string {
		for _, row := range compareResults(a, b, bounds) {
			if row.Metric == metric {
				return row.Verdict
			}
		}
		return "missing"
	}
	steady := mk(1.00, 1.01, 0.99, 1.00, 1.02)
	if v := verdict(steady, mk(1.02, 1.03, 1.01, 1.02, 1.04), "answer_p50_ms"); v != "ok" {
		t.Errorf("2%% slower within a 25%% bound: %s", v)
	}
	if v := verdict(steady, mk(1.40, 1.41, 1.39, 1.40, 1.42), "answer_p50_ms"); v != "worse" {
		t.Errorf("40%% slower: %s", v)
	}
	if v := verdict(steady, mk(1.40, 1.41, 1.39, 1.40, 1.42), "answers_per_s"); v != "worse" {
		t.Errorf("29%% fewer answers per second: %s", v)
	}
	if v := verdict(steady, mk(0.80, 0.81, 0.79, 0.80, 0.82), "answer_p50_ms"); v != "ok" {
		t.Errorf("20%% faster: %s", v)
	}
	if v := verdict(steady, mk(0.6, 1.4, 1.0, 0.7, 1.3), "answer_p50_ms"); v != "unresolved" {
		t.Errorf("same median, spread wider than the bound: %s", v)
	}
	failing := mk(1, 1, 1)
	failing.Runs[0].Metrics["fail_ratio"] = 0.01
	failing.Runs[1].Metrics["fail_ratio"] = 0.01
	if v := verdict(steady, failing, "fail_ratio"); v != "worse" {
		t.Errorf("failures appeared: %s", v)
	}

	dir := t.TempDir()
	write := func(name string, rf *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSONFile(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", steady), write("same.json", steady), write("slow.json", mk(1.5, 1.5, 1.5))
	var stdout, stderr bytes.Buffer
	benchFile := filepath.Join("..", "BENCHMARK.json")
	if code := compareFiles(a, same, benchFile, "", &stdout, &stderr); code != 0 {
		t.Errorf("comparing a file with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := compareFiles(a, slow, benchFile, "", &stdout, &stderr); code != 1 {
		t.Errorf("comparing with a 50%% slower file: exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "worse") {
		t.Errorf("no 'worse' verdict printed:\n%s", stdout.String())
	}
	wider := mk(1, 1, 1)
	wider.Runs[0].Callers = 4
	if code := compareFiles(a, write("wider.json", wider), benchFile, "", &stdout, &stderr); code != 2 {
		t.Errorf("comparing runs of different caller counts: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONMatchesTheTables pins BENCHMARK.json to the metric
// tables the harness prints from, so neither drifts alone.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json %s has %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d] = %s %s %s, the table says %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v, the table says %v", kind, i, g.Name, g.Bound, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, contractEndToEnd(), true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || strings.Join(bf.Command, " ") != "sh bench/run.sh" {
		t.Errorf("paths %v command %v", bf.Paths, bf.Command)
	}
	if _, err := os.Stat(filepath.Join("results", "BENCH_11.json")); err != nil {
		t.Errorf("the first trajectory point is missing: %v", err)
	}
}

// TestOrphansHaveOrphanChildren: a handler span stamped with the op after
// its own has no enclosing request there, and what it caused must not be
// charged to that op either.
func TestOrphansHaveOrphanChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "cluster.handler", StartNS: 10, EndNS: 120, Parent: -1, Op: 1},  // late, from op 0
		{Name: "cluster.upstream", StartNS: 20, EndNS: 110, Parent: -1, Op: 1}, // late, from op 0
		{Name: "request", StartNS: 100, EndNS: 200, Parent: -1, Op: 1},
		{Name: "cluster.handler", StartNS: 130, EndNS: 190, Parent: -1, Op: 1},
	}
	spans := tr.link()
	var rootNS, selfNS float64
	for i, self := range selfTimes(spans) {
		selfNS += self
		if spans[i].Name == "request" {
			rootNS += float64(spans[i].dur())
		}
		if spans[i].StartNS < 100 && spans[i].Parent != -1 {
			t.Errorf("late span %s [%d,%d] found a parent", spans[i].Name, spans[i].StartNS, spans[i].EndNS)
		}
	}
	if selfNS != rootNS {
		t.Errorf("self times sum to %v, the root to %v", selfNS, rootNS)
	}
}
