package stats

// The deterministic, seedable random distributions the workload generator is
// built from: categorical (weighted) choice, lognormal and bounded-Pareto
// size distributions, and mixtures of samplers.
//
// Determinism contract: every generator in the study derives its randomness
// from a Stream(seed, index) PCG stream, so a campaign is bit-identical for
// a given (seed, scale) pair regardless of worker parallelism.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Stream returns an independent deterministic random stream for the given
// campaign seed and element index (e.g. job number). Distinct indexes yield
// statistically independent streams.
func Stream(seed, index uint64) *rand.Rand {
	// Mix the index with a splitmix64-style finalizer so that consecutive
	// indexes do not produce correlated PCG increments.
	z := index + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewPCG(seed, z))
}

// Sampler produces one non-negative value per call from some distribution.
type Sampler interface {
	Sample(r *rand.Rand) float64
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(r *rand.Rand) float64

// Sample calls f(r).
func (f SamplerFunc) Sample(r *rand.Rand) float64 { return f(r) }

// Constant is a Sampler that always returns the same value.
type Constant float64

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return float64(c) }

// Quantiler is implemented by distributions with a closed-form inverse CDF,
// enabling stratified (quota) sampling: feeding a low-discrepancy sequence
// of u values through Quantile yields samples whose running mean converges
// far faster than independent draws — essential for heavy-tailed structural
// counts in small synthetic campaigns.
type Quantiler interface {
	Quantile(u float64) float64
}

// LogNormal samples a lognormal distribution parameterized directly by its
// median and the multiplicative spread sigma (the standard deviation of the
// underlying normal in log space). Median must be positive and Sigma
// non-negative.
type LogNormal struct {
	Median float64
	Sigma  float64
}

// Sample draws from the lognormal.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	if l.Median <= 0 {
		panic(fmt.Sprintf("stats: LogNormal median %v must be positive", l.Median))
	}
	return l.Median * math.Exp(l.Sigma*r.NormFloat64())
}

// Quantile returns the value at cumulative probability u ∈ (0,1).
func (l LogNormal) Quantile(u float64) float64 {
	if l.Median <= 0 {
		panic(fmt.Sprintf("stats: LogNormal median %v must be positive", l.Median))
	}
	return l.Median * math.Exp(l.Sigma*NormQuantile(u))
}

// NormQuantile is the standard normal inverse CDF Φ⁻¹(u), computed with
// Acklam's rational approximation (relative error below 1.15e-9 across the
// open unit interval). Inputs at or outside {0,1} are clamped to ±8σ.
func NormQuantile(u float64) float64 {
	const tiny = 1e-300
	if u <= tiny {
		return -8
	}
	if u >= 1-1e-16 {
		return 8
	}
	// Coefficients from Acklam (2003).
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case u < plow:
		q := math.Sqrt(-2 * math.Log(u))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case u <= 1-plow:
		q := u - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-u))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// BoundedPareto samples a Pareto distribution with shape Alpha truncated to
// [Lo, Hi] by inverse-CDF sampling. It models heavy-tailed file sizes such
// as the paper's >1 TB outliers. Requires 0 < Lo < Hi and Alpha > 0.
type BoundedPareto struct {
	Alpha  float64
	Lo, Hi float64
}

// Sample draws from the bounded Pareto.
func (p BoundedPareto) Sample(r *rand.Rand) float64 {
	if !(p.Lo > 0 && p.Hi > p.Lo && p.Alpha > 0) {
		panic(fmt.Sprintf("stats: invalid BoundedPareto %+v", p))
	}
	u := r.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	// Inverse CDF of the truncated Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	// Clamp against floating-point drift at the boundaries.
	return math.Min(math.Max(x, p.Lo), p.Hi)
}

// UniformRange samples uniformly from [Lo, Hi).
type UniformRange struct {
	Lo, Hi float64
}

// Sample draws from the range.
func (u UniformRange) Sample(r *rand.Rand) float64 {
	if u.Hi < u.Lo {
		panic(fmt.Sprintf("stats: invalid UniformRange [%v,%v)", u.Lo, u.Hi))
	}
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

// Component is one weighted member of a Mixture.
type Component struct {
	Weight  float64
	Sampler Sampler
}

// Mixture samples from one of its components, chosen with probability
// proportional to weight. Construct with NewMixture.
type Mixture struct {
	components []Component
	cum        []float64 // cumulative normalized weights
}

// NewMixture builds a mixture from weighted components. Weights must be
// non-negative with a positive sum.
func NewMixture(components ...Component) *Mixture {
	if len(components) == 0 {
		panic("stats: NewMixture needs at least one component")
	}
	var total float64
	for _, c := range components {
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			panic(fmt.Sprintf("stats: negative mixture weight %v", c.Weight))
		}
		if c.Sampler == nil {
			panic("stats: nil sampler in mixture")
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("stats: mixture weights sum to zero")
	}
	m := &Mixture{
		components: append([]Component(nil), components...),
		cum:        make([]float64, len(components)),
	}
	var running float64
	for i, c := range components {
		running += c.Weight / total
		m.cum[i] = running
	}
	m.cum[len(m.cum)-1] = 1 // guard against rounding
	return m
}

// Sample draws a component by weight, then samples it.
func (m *Mixture) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.components) {
		i = len(m.components) - 1
	}
	return m.components[i].Sampler.Sample(r)
}

// Categorical draws values of type T with fixed weights. Construct with
// NewCategorical; the zero value is unusable.
type Categorical[T any] struct {
	values []T
	cum    []float64
}

// Weighted pairs a value with its selection weight.
type Weighted[T any] struct {
	Value  T
	Weight float64
}

// NewCategorical builds a weighted categorical distribution. Weights must be
// non-negative with a positive sum.
func NewCategorical[T any](choices ...Weighted[T]) *Categorical[T] {
	if len(choices) == 0 {
		panic("stats: NewCategorical needs at least one choice")
	}
	var total float64
	for _, c := range choices {
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			panic(fmt.Sprintf("stats: negative categorical weight %v", c.Weight))
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("stats: categorical weights sum to zero")
	}
	cat := &Categorical[T]{
		values: make([]T, len(choices)),
		cum:    make([]float64, len(choices)),
	}
	var running float64
	for i, c := range choices {
		cat.values[i] = c.Value
		running += c.Weight / total
		cat.cum[i] = running
	}
	cat.cum[len(cat.cum)-1] = 1
	return cat
}

// Sample draws one value according to the weights.
func (c *Categorical[T]) Sample(r *rand.Rand) T {
	return c.SampleQuantile(r.Float64())
}

// SampleQuantile returns the value at cumulative position u ∈ [0,1). With a
// low-discrepancy u sequence this gives quota sampling: category counts stay
// proportional to their weights at any sample size, which matters when a
// rare category carries a large share of downstream mass.
func (c *Categorical[T]) SampleQuantile(u float64) T {
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.values) {
		i = len(c.values) - 1
	}
	return c.values[i]
}

// Values returns the distinct values in declaration order. The slice is
// freshly allocated.
func (c *Categorical[T]) Values() []T {
	return append([]T(nil), c.values...)
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// are clamped.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
