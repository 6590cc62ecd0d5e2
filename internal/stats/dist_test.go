package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := Stream(42, 7)
	b := Stream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical (seed,index) diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(42, 1)
	b := Stream(42, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different indexes collided %d/64 times", same)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := Stream(1, 1)
	ln := LogNormal{Median: 1000, Sigma: 1.5}
	n := 20000
	above := 0
	for i := 0; i < n; i++ {
		if ln.Sample(r) > 1000 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction above median = %v, want ≈0.5", frac)
	}
}

func TestLogNormalZeroSigmaIsConstant(t *testing.T) {
	r := Stream(1, 2)
	ln := LogNormal{Median: 77, Sigma: 0}
	for i := 0; i < 10; i++ {
		if got := ln.Sample(r); got != 77 {
			t.Fatalf("sigma=0 sample = %v, want 77", got)
		}
	}
}

func TestLogNormalPanicsOnBadMedian(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive median")
		}
	}()
	LogNormal{Median: 0, Sigma: 1}.Sample(Stream(1, 3))
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	r := Stream(2, 1)
	p := BoundedPareto{Alpha: 1.1, Lo: 1e9, Hi: 1e13}
	for i := 0; i < 5000; i++ {
		v := p.Sample(r)
		if v < p.Lo || v > p.Hi {
			t.Fatalf("sample %v outside [%v,%v]", v, p.Lo, p.Hi)
		}
	}
}

func TestBoundedParetoIsHeavyTailed(t *testing.T) {
	r := Stream(2, 2)
	p := BoundedPareto{Alpha: 0.8, Lo: 1, Hi: 1e6}
	small, large := 0, 0
	for i := 0; i < 20000; i++ {
		v := p.Sample(r)
		if v < 10 {
			small++
		}
		if v > 1e3 {
			large++
		}
	}
	// P(X < 10) ≈ 0.84 and P(X > 1e3) ≈ 4e-3 for these parameters, so both
	// ends should be populated with ample slack at n = 20000.
	if small < 10000 || large < 10 {
		t.Errorf("expected mass at both ends: small=%d large=%d", small, large)
	}
	if small <= large {
		t.Errorf("Pareto should favor small values: small=%d large=%d", small, large)
	}
}

func TestBoundedParetoPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Lo >= Hi")
		}
	}()
	BoundedPareto{Alpha: 1, Lo: 10, Hi: 5}.Sample(Stream(1, 4))
}

func TestMixtureWeights(t *testing.T) {
	r := Stream(4, 1)
	m := NewMixture(
		Component{Weight: 3, Sampler: Constant(1)},
		Component{Weight: 1, Sampler: Constant(2)},
	)
	n := 40000
	ones := 0
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(n)
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("component-1 fraction = %v, want ≈0.75", frac)
	}
}

func TestMixtureSingleComponent(t *testing.T) {
	m := NewMixture(Component{Weight: 1, Sampler: Constant(9)})
	if got := m.Sample(Stream(4, 2)); got != 9 {
		t.Errorf("single-component mixture sample = %v, want 9", got)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := map[string]func(){
		"empty":       func() { NewMixture() },
		"negative":    func() { NewMixture(Component{Weight: -1, Sampler: Constant(0)}) },
		"nil sampler": func() { NewMixture(Component{Weight: 1, Sampler: nil}) },
		"zero total":  func() { NewMixture(Component{Weight: 0, Sampler: Constant(0)}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCategoricalWeights(t *testing.T) {
	r := Stream(5, 1)
	c := NewCategorical(
		Weighted[string]{Value: "posix", Weight: 50},
		Weighted[string]{Value: "stdio", Weight: 40},
		Weighted[string]{Value: "mpiio", Weight: 10},
	)
	n := 50000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	checks := map[string]float64{"posix": 0.5, "stdio": 0.4, "mpiio": 0.1}
	for v, want := range checks {
		frac := float64(counts[v]) / float64(n)
		if math.Abs(frac-want) > 0.02 {
			t.Errorf("%s fraction = %v, want ≈%v", v, frac, want)
		}
	}
}

func TestCategoricalZeroWeightNeverDrawn(t *testing.T) {
	r := Stream(5, 2)
	c := NewCategorical(
		Weighted[int]{Value: 1, Weight: 1},
		Weighted[int]{Value: 2, Weight: 0},
	)
	for i := 0; i < 10000; i++ {
		if c.Sample(r) == 2 {
			t.Fatal("zero-weight value drawn")
		}
	}
}

func TestCategoricalValues(t *testing.T) {
	c := NewCategorical(
		Weighted[int]{Value: 7, Weight: 1},
		Weighted[int]{Value: 8, Weight: 1},
	)
	vals := c.Values()
	if len(vals) != 2 || vals[0] != 7 || vals[1] != 8 {
		t.Errorf("Values() = %v", vals)
	}
	vals[0] = 99 // must not affect internals
	if c.Values()[0] != 7 {
		t.Error("Values() aliases internal state")
	}
}

func TestBernoulli(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	if Bernoulli(r, 0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !Bernoulli(r, 1) {
		t.Error("Bernoulli(1) returned false")
	}
	if Bernoulli(r, -3) {
		t.Error("Bernoulli(-3) returned true")
	}
	if !Bernoulli(r, 2) {
		t.Error("Bernoulli(2) returned false")
	}
	n, hits := 30000, 0
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) rate = %v", frac)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ u, want float64 }{
		{0.5, 0},
		{0.8413447, 1},  // Φ(1)
		{0.1586553, -1}, // Φ(−1)
		{0.9772499, 2},
		{0.0013499, -3},
	}
	for _, c := range cases {
		if got := NormQuantile(c.u); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.u, got, c.want)
		}
	}
	if got := NormQuantile(0); got != -8 {
		t.Errorf("NormQuantile(0) = %v, want clamp at -8", got)
	}
	if got := NormQuantile(1); got != 8 {
		t.Errorf("NormQuantile(1) = %v, want clamp at 8", got)
	}
}

func TestNormQuantileMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for u := 0.001; u < 1; u += 0.001 {
		v := NormQuantile(u)
		if v < prev {
			t.Fatalf("NormQuantile not monotone at u=%v", u)
		}
		prev = v
	}
}

func TestLogNormalQuantile(t *testing.T) {
	ln := LogNormal{Median: 100, Sigma: 1.5}
	if got := ln.Quantile(0.5); math.Abs(got-100) > 1e-6 {
		t.Errorf("median quantile = %v", got)
	}
	// Q(Φ(1)) = median·e^σ.
	if got := ln.Quantile(0.8413447); math.Abs(got-100*math.Exp(1.5)) > 0.1 {
		t.Errorf("1σ quantile = %v, want %v", got, 100*math.Exp(1.5))
	}
	if ln.Quantile(0.2) >= ln.Quantile(0.8) {
		t.Error("quantiles not monotone")
	}
}

func TestLogNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive median")
		}
	}()
	LogNormal{Median: -1, Sigma: 1}.Quantile(0.5)
}

func TestCategoricalSampleQuantile(t *testing.T) {
	c := NewCategorical(
		Weighted[string]{Value: "a", Weight: 0.25},
		Weighted[string]{Value: "b", Weight: 0.50},
		Weighted[string]{Value: "c", Weight: 0.25},
	)
	cases := []struct {
		u    float64
		want string
	}{
		{0.0, "a"},
		{0.24, "a"},
		{0.26, "b"},
		{0.74, "b"},
		{0.76, "c"},
		{0.999, "c"},
	}
	for _, cse := range cases {
		if got := c.SampleQuantile(cse.u); got != cse.want {
			t.Errorf("SampleQuantile(%v) = %q, want %q", cse.u, got, cse.want)
		}
	}
}

// Quota property: feeding a Weyl sequence through SampleQuantile yields
// near-exact category proportions at any prefix length.
func TestSampleQuantileQuotaProperty(t *testing.T) {
	c := NewCategorical(
		Weighted[int]{Value: 0, Weight: 0.99},
		Weighted[int]{Value: 1, Weight: 0.01},
	)
	const phi = 0.6180339887498949
	for _, n := range []int{100, 500, 2000} {
		rare := 0
		for i := 0; i < n; i++ {
			u := (float64(i) + 0.5) * phi
			u -= math.Floor(u)
			if c.SampleQuantile(u) == 1 {
				rare++
			}
		}
		want := float64(n) * 0.01
		if math.Abs(float64(rare)-want) > 2 {
			t.Errorf("n=%d: rare count %d, want ≈%.1f (quota sampling)", n, rare, want)
		}
	}
}

// Constant is a Sampler that always returns the same value.
type Constant float64

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }
