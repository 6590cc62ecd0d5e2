package obsv

import (
	"bytes"
	"encoding/gob"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	// Every lookup and every operation on the resulting nil handles must be
	// a safe no-op: nil is the disabled state.
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(42)
	r.TimeHistogram("th").Observe(42)
	r.Histogram("h").AddBucket(3, 7)
	r.Histogram("h").AddSum(10)
	timer := r.Span("s").Begin()
	r.Span("s").AddBytes(1)
	r.Span("s").AddOps(1)
	r.Span("s").SetWorkers(4)
	timer.End()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if st := r.State(); st != nil {
		t.Fatalf("nil registry state = %+v", st)
	}
	r.RestoreState(&State{Counters: map[string]int64{"c": 1}})
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
}

// The primitives the hot paths call per entry allocate nothing, with
// metrics on or off: the six operations BenchmarkObsvOverhead times.
func TestPrimitivesAllocateNothing(t *testing.T) {
	var off *Registry
	on := New()
	c, cNil := on.Counter("on"), off.Counter("off")
	h, hNil := on.Histogram("h"), off.Histogram("off")
	s, sNil := on.Span("stage"), off.Span("off")
	for _, op := range []struct {
		name string
		call func()
	}{
		{"counter", func() { c.Add(1) }},
		{"counter-nil", func() { cNil.Add(1) }},
		{"hist-observe", func() { h.Observe(42) }},
		{"hist-nil", func() { hNil.Observe(42) }},
		{"span-window", func() { s.Begin().End() }},
		{"span-nil", func() { sNil.Begin().End() }},
	} {
		if n := testing.AllocsPerRun(100, op.call); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", op.name, n)
		}
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("bytes")
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(1024)
	h.Observe(1025)
	if h.Count() != 5 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Sum() != 0+1+2+1024+1025 {
		t.Fatalf("hist sum = %d", h.Sum())
	}
	if h.buckets[0].Load() != 2 { // 0 and 1
		t.Fatalf("bucket 0 = %d", h.buckets[0].Load())
	}
	if h.buckets[1].Load() != 1 { // 2
		t.Fatalf("bucket 1 = %d", h.buckets[1].Load())
	}
	if h.buckets[10].Load() != 1 { // 1024 = 2^10
		t.Fatalf("bucket 10 = %d", h.buckets[10].Load())
	}
	if h.buckets[11].Load() != 1 { // 1025
		t.Fatalf("bucket 11 = %d", h.buckets[11].Load())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 20, 20}, {1<<20 + 1, 21}, {1 << 62, 62}, {int64(^uint64(0) >> 1), 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSpan(t *testing.T) {
	r := New()
	s := r.Span("ingest")
	timer := s.Begin()
	s.AddBytes(100)
	s.AddOps(3)
	s.SetWorkers(8)
	timer.End()
	if s.WallNanos() < 0 {
		t.Fatalf("wall = %d", s.WallNanos())
	}
	if s.Bytes() != 100 || s.Ops() != 3 {
		t.Fatalf("bytes/ops = %d/%d", s.Bytes(), s.Ops())
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "ingest" ||
		snap.Spans[0].Workers != 8 || snap.Spans[0].MaxGoroutines < 1 {
		t.Fatalf("span snap = %+v", snap.Spans)
	}
}

func TestStateRoundTripsThroughGob(t *testing.T) {
	r := New()
	r.Counter("a").Add(10)
	r.Counter("b").Add(20)
	r.Histogram("sizes").Observe(4096)
	r.Histogram("sizes").Observe(4097)
	r.TimeHistogram("lat").Observe(1e6) // volatile: must not survive
	r.Gauge("depth").Set(3)             // volatile: must not survive
	r.Span("ingest").AddBytes(4096)
	r.Span("ingest").AddOps(2)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.State()); err != nil {
		t.Fatal(err)
	}
	var st State
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}

	r2 := New()
	r2.Counter("a").Add(999) // restore must overwrite
	r2.RestoreState(&st)
	if got := r2.Counter("a").Value(); got != 10 {
		t.Fatalf("restored a = %d, want 10", got)
	}
	if got := r2.Counter("b").Value(); got != 20 {
		t.Fatalf("restored b = %d, want 20", got)
	}
	h := r2.Histogram("sizes")
	if h.Count() != 2 || h.Sum() != 8193 {
		t.Fatalf("restored hist count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.buckets[12].Load() != 1 || h.buckets[13].Load() != 1 {
		t.Fatalf("restored buckets wrong: 12=%d 13=%d", h.buckets[12].Load(), h.buckets[13].Load())
	}
	if sp := r2.Span("ingest"); sp.Bytes() != 4096 || sp.Ops() != 2 {
		t.Fatalf("restored span bytes/ops = %d/%d", sp.Bytes(), sp.Ops())
	}
	snap := r2.Snapshot()
	for _, hs := range snap.Histograms {
		if hs.Name == "lat" {
			t.Fatal("volatile histogram leaked through State")
		}
	}
	if len(snap.Gauges) != 0 {
		t.Fatal("gauge leaked through State")
	}
}

func TestStripVolatile(t *testing.T) {
	r := New()
	r.Counter("kept").Add(1)
	r.Gauge("dropped").Set(1)
	r.Histogram("kept_hist").Observe(8)
	r.TimeHistogram("dropped_hist").Observe(8)
	sp := r.Span("stage")
	timer := sp.Begin()
	sp.AddBytes(64)
	sp.AddOps(2)
	sp.SetWorkers(16)
	timer.End()

	s := r.Snapshot().StripVolatile()
	if len(s.Gauges) != 0 {
		t.Fatalf("gauges survived strip: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "kept_hist" {
		t.Fatalf("histograms after strip: %+v", s.Histograms)
	}
	if len(s.Spans) != 1 {
		t.Fatalf("spans after strip: %+v", s.Spans)
	}
	sp0 := s.Spans[0]
	if sp0.WallNanos != 0 || sp0.Workers != 0 || sp0.MaxGoroutines != 0 || sp0.Active != 0 {
		t.Fatalf("volatile span fields survived: %+v", sp0)
	}
	if sp0.Bytes != 64 || sp0.Ops != 2 {
		t.Fatalf("deterministic span fields lost: %+v", sp0)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New()
	r.Counter("z").Add(1)
	r.Counter("a").Add(1)
	r.Counter("m").Add(1)
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "m" || s.Counters[2].Name != "z" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	j1 := string(r.Snapshot().JSON())
	j2 := string(r.Snapshot().JSON())
	if j1 != j2 {
		t.Fatal("snapshot JSON not stable across calls")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("n")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := r.Span("stage").Begin()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(int64(i))
			}
			timer.End()
		}()
	}
	// Snapshot concurrently with the writers (the HTTP handler does this).
	for i := 0; i < 10; i++ {
		_ = r.Snapshot().JSON()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter/hist = %d/%d, want 8000/8000", c.Value(), h.Count())
	}
}

func TestText(t *testing.T) {
	r := New()
	r.Counter("ingest.logs_parsed").Add(1234)
	sp := r.Span("ingest")
	timer := sp.Begin()
	sp.AddOps(1234)
	sp.AddBytes(5 << 20)
	timer.End()
	txt := r.Snapshot().Text()
	for _, want := range []string{"ingest.logs_parsed", "stage", "ingest", "5.00 MiB"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text missing %q:\n%s", want, txt)
		}
	}
}
