package faults

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

func testSchedule(seed uint64) *Schedule {
	return &Schedule{
		Seed: seed,
		Windows: []Window{
			{Kind: Slowdown, Start: 100, End: 200, ServerFrac: 0.5, Severity: 0.6},
			{Kind: Outage, Start: 300, End: 400, ServerFrac: 1, ErrorRate: 0.3},
			{Kind: MetaStorm, Start: 500, End: 600, ServerFrac: 1, LatencyFactor: 10},
		},
		TransientErrorRate: 1e-3,
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	eff := in.Effect(150, 0, 4)
	if eff != ZeroEffect() {
		t.Errorf("nil injector effect = %+v", eff)
	}
	if in.ErrorRateAt(150, 0, 4) != 0 {
		t.Error("nil injector error rate must be 0")
	}
	if in.DrawError(150, 0, 4, rand.New(rand.NewPCG(1, 1))) {
		t.Error("nil injector must never draw an error")
	}
	if NewInjector(nil, "x", 10) != nil {
		t.Error("NewInjector(nil schedule) must return nil")
	}
}

func TestEffectOutsideWindowsIsClean(t *testing.T) {
	in := NewInjector(testSchedule(7), "Alpine", 154)
	eff := in.Effect(50, 0, 8)
	if eff.Degraded || eff.BWScale != 1 || eff.LatencyScale != 1 {
		t.Errorf("clean-time effect = %+v", eff)
	}
	if eff.ErrorRate != 1e-3 {
		t.Errorf("background error rate = %v", eff.ErrorRate)
	}
}

func TestEffectNaNTimeSeesNoFaults(t *testing.T) {
	in := NewInjector(testSchedule(7), "Alpine", 154)
	if eff := in.Effect(math.NaN(), 0, 8); eff != ZeroEffect() {
		t.Errorf("NaN-time effect = %+v", eff)
	}
}

func TestFullOutageIsDownWithFloor(t *testing.T) {
	in := NewInjector(testSchedule(7), "Alpine", 154)
	eff := in.Effect(350, 0, 8)
	if !eff.Down || !eff.Degraded {
		t.Fatalf("full outage effect = %+v", eff)
	}
	if eff.BWScale != bwFloor {
		t.Errorf("outage BWScale = %v, want floor %v", eff.BWScale, bwFloor)
	}
	if eff.ErrorRate < 0.9 {
		t.Errorf("outage error rate = %v, want ≥ 0.9", eff.ErrorRate)
	}
}

func TestMetaStormScalesLatencyOnly(t *testing.T) {
	in := NewInjector(testSchedule(7), "Alpine", 154)
	eff := in.Effect(550, 0, 8)
	if eff.LatencyScale != 10 {
		t.Errorf("storm LatencyScale = %v", eff.LatencyScale)
	}
	if eff.BWScale != 1 {
		t.Errorf("storm BWScale = %v", eff.BWScale)
	}
}

func TestPartialSlowdownScalesWithAffectedShare(t *testing.T) {
	in := NewInjector(testSchedule(7), "Alpine", 154)
	eff := in.Effect(150, 0, 16)
	if !eff.Degraded {
		t.Fatal("in-window request not degraded")
	}
	if eff.BWScale >= 1 || eff.BWScale < 1-0.6 {
		t.Errorf("slowdown BWScale = %v, want in [0.4, 1)", eff.BWScale)
	}
}

func TestMembershipDeterministic(t *testing.T) {
	a := NewInjector(testSchedule(42), "Cori Scratch", 248)
	b := NewInjector(testSchedule(42), "Cori Scratch", 248)
	for s := 0; s < 248; s++ {
		if a.Affected(0, s) != b.Affected(0, s) {
			t.Fatalf("membership differs at server %d", s)
		}
	}
	// A different seed must (with overwhelming probability) pick a
	// different subset.
	c := NewInjector(testSchedule(43), "Cori Scratch", 248)
	same := 0
	for s := 0; s < 248; s++ {
		if a.Affected(0, s) == c.Affected(0, s) {
			same++
		}
	}
	if same == 248 {
		t.Error("seed change did not move window membership")
	}
}

func TestEffectDeterministicAcrossInjectors(t *testing.T) {
	s := testSchedule(9)
	a := NewInjector(s, "SCNL", 4608)
	b := NewInjector(s, "SCNL", 4608)
	for _, tc := range []struct {
		t           float64
		start, span int
	}{{150, 7, 3}, {150, 4000, 200}, {350, 0, 4608}, {550, 99, 1}} {
		if ea, eb := a.Effect(tc.t, tc.start, tc.span), b.Effect(tc.t, tc.start, tc.span); ea != eb {
			t.Errorf("effect at %+v differs: %+v vs %+v", tc, ea, eb)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	for _, tc := range []struct {
		n int
		p float64
	}{
		{0, 0.5}, {10, 0}, {10, 1}, {50, 0.3}, {1000, 0.01}, {1 << 20, 1e-4}, {100000, 0.4},
	} {
		k := Binomial(r, tc.n, tc.p)
		if k < 0 || k > tc.n {
			t.Errorf("Binomial(%d, %v) = %d outside [0, n]", tc.n, tc.p, k)
		}
		if tc.p >= 1 && k != tc.n {
			t.Errorf("Binomial(%d, 1) = %d", tc.n, k)
		}
		if tc.p <= 0 && k != 0 {
			t.Errorf("Binomial(%d, 0) = %d", tc.n, k)
		}
	}
}

func TestBinomialMeanRoughlyRight(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	const n, p, trials = 10000, 0.05, 200
	sum := 0
	for i := 0; i < trials; i++ {
		sum += Binomial(r, n, p)
	}
	mean := float64(sum) / trials
	if mean < 0.9*n*p || mean > 1.1*n*p {
		t.Errorf("mean %v far from np = %v", mean, float64(n)*p)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Production(11, 365*86400)
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("Generate is not deterministic for a fixed config")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	if len(a.Windows) == 0 {
		t.Error("production schedule has no windows")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("slowdowns=3,outages=1,storms=0,errrate=1e-4,frac=0.2,severity=0.8,latfactor=4,duration=2", 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Slowdowns != 3 || cfg.Outages != 1 || cfg.Storms != 0 {
		t.Errorf("counts: %+v", cfg)
	}
	if cfg.TransientErrorRate != 1e-4 || cfg.ServerFrac != 0.2 ||
		cfg.Severity != 0.8 || cfg.LatencyFactor != 4 || cfg.MeanDurationSeconds != 7200 {
		t.Errorf("shape: %+v", cfg)
	}
	if _, err := ParseSpec("production", 5, 1000); err != nil {
		t.Errorf("production preset: %v", err)
	}
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad, 5, 1000); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// badSpecs are fault specs ParseSpec refuses; FuzzParseSpec starts from
// them.
var badSpecs = []string{
	"nope=1", "slowdowns=x", "frac=2", "severity=1.5", "latfactor=0.5", "slowdowns",
	// A range check written as f <= 0 || f > 1 lets NaN through.
	"frac=NaN", "severity=NaN", "latfactor=NaN", "duration=NaN", "errrate=NaN",
	"latfactor=+Inf", "duration=+Inf",
	"duration=1e306", // finite hours, infinite seconds
}

// FuzzParseSpec: no spec panics ParseSpec, and every accepted one yields
// finite values inside the documented ranges.
func FuzzParseSpec(f *testing.F) {
	f.Add("production")
	f.Add("slowdowns=3,outages=1,storms=0,errrate=1e-4,frac=0.2,severity=0.8,latfactor=4,duration=2")
	for _, s := range badSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec, 5, 1000)
		if err != nil {
			return
		}
		if cfg.Slowdowns < 0 || cfg.Outages < 0 || cfg.Storms < 0 ||
			!(cfg.ServerFrac > 0 && cfg.ServerFrac <= 1) ||
			!(cfg.Severity > 0 && cfg.Severity < 1) ||
			!(cfg.LatencyFactor >= 1 && !math.IsInf(cfg.LatencyFactor, 0)) ||
			!(cfg.MeanDurationSeconds > 0 && !math.IsInf(cfg.MeanDurationSeconds, 0)) ||
			!(cfg.TransientErrorRate >= 0 && cfg.TransientErrorRate <= 1) {
			t.Errorf("ParseSpec(%q) accepted out-of-range %+v", spec, cfg)
		}
	})
}

func TestScheduleSlowdownAt(t *testing.T) {
	s := testSchedule(1)
	if got := s.SlowdownAt(50); got != 1 {
		t.Errorf("clean-time machine slowdown = %v", got)
	}
	if got := s.SlowdownAt(150); got != 1-0.5*0.6 {
		t.Errorf("slowdown-window machine scale = %v", got)
	}
	if got := s.SlowdownAt(350); got != 0.01 {
		t.Errorf("full-outage machine scale = %v (want floor)", got)
	}
	var nilSched *Schedule
	if nilSched.SlowdownAt(150) != 1 || nilSched.ActiveAt(150) {
		t.Error("nil schedule must be a no-op")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []*Schedule{
		{Windows: []Window{{Kind: Slowdown, Start: 10, End: 5, ServerFrac: 0.5, Severity: 0.5}}},
		{Windows: []Window{{Kind: Slowdown, Start: 0, End: 5, ServerFrac: 0, Severity: 0.5}}},
		{Windows: []Window{{Kind: Slowdown, Start: 0, End: 5, ServerFrac: 0.5, Severity: 1.5}}},
		{Windows: []Window{{Kind: MetaStorm, Start: 0, End: 5, ServerFrac: 0.5, LatencyFactor: 0.5}}},
		{TransientErrorRate: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d validated", i)
		}
	}
}
