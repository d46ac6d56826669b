package sim

import (
	"math"
	"sort"
	"testing"
)

// The distribution tests hold Norm, Exp and LogNormal to their exact laws at
// n = 10⁶ from fixed seeds. Every bound comes from sampling theory, not from
// any sampler's output:
//
//   - Kolmogorov–Smirnov: √n·D < 1.95, the 0.1% critical value of the
//     Kolmogorov distribution.
//   - Raw moments E[X^k], k = 1..4: the sample mean of X^k lies within
//     momentZ standard errors √(Var(X^k)/n), with Var(X^k) = E[X^2k] −
//     E[X^k]² from the exact law.
//   - Tail counts: within momentZ binomial standard deviations √(np(1−p))
//     of np, for the exact tail probability p.

const (
	distN   = 1_000_000
	ksCrit  = 1.95
	momentZ = 4.0
)

// draw fills n values from sample on a generator seeded with seed.
func draw(seed uint64, sample func(r *RNG) float64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, distN)
	for i := range xs {
		xs[i] = sample(r)
	}
	return xs
}

// ksScaled returns √n·D between xs and cdf. It sorts xs.
func ksScaled(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return math.Sqrt(n) * d
}

// checkMoments compares the raw moments of transform(x) over xs with
// exact[k-1] = E[Y^k] for k = 1..8.
func checkMoments(t *testing.T, name string, xs []float64, transform func(float64) float64, exact [8]float64) {
	t.Helper()
	var sum [4]float64
	for _, x := range xs {
		y := transform(x)
		p := y
		for k := range sum {
			sum[k] += p
			p *= y
		}
	}
	n := float64(len(xs))
	for k := range sum {
		mk := exact[k]
		se := math.Sqrt((exact[2*k+1] - mk*mk) / n)
		if got := sum[k] / n; math.Abs(got-mk) > momentZ*se {
			t.Errorf("%s: E[Y^%d] = %.6g, want %.6g ± %.3g", name, k+1, got, mk, momentZ*se)
		}
	}
}

// checkTail compares the count of xs beyond the predicate with n·p.
func checkTail(t *testing.T, name string, xs []float64, beyond func(float64) bool, p float64) {
	t.Helper()
	count := 0
	for _, x := range xs {
		if beyond(x) {
			count++
		}
	}
	n := float64(len(xs))
	want, sd := n*p, math.Sqrt(n*p*(1-p))
	if math.Abs(float64(count)-want) > momentZ*sd {
		t.Errorf("%s: %d beyond, want %.1f ± %.1f", name, count, want, momentZ*sd)
	}
}

// stdNormalCDF is Φ.
func stdNormalCDF(z float64) float64 { return math.Erfc(-z/math.Sqrt2) / 2 }

// normalMoments are E[Z^k] for a standard normal, k = 1..8.
var normalMoments = [8]float64{0, 1, 0, 3, 0, 15, 0, 105}

func TestNormDistribution(t *testing.T) {
	const mean, sd = 10, 3
	xs := draw(101, func(r *RNG) float64 { return r.Norm(mean, sd) })
	z := func(x float64) float64 { return (x - mean) / sd }
	checkMoments(t, "Norm", xs, z, normalMoments)
	pTail := stdNormalCDF(-4)
	checkTail(t, "Norm above +4σ", xs, func(x float64) bool { return z(x) > 4 }, pTail)
	checkTail(t, "Norm below −4σ", xs, func(x float64) bool { return z(x) < -4 }, pTail)
	if d := ksScaled(xs, func(x float64) float64 { return stdNormalCDF(z(x)) }); d >= ksCrit {
		t.Errorf("Norm: √n·D = %.3f, want < %v", d, ksCrit)
	}
}

func TestExpDistribution(t *testing.T) {
	const mean = 2.5
	xs := draw(102, func(r *RNG) float64 { return r.Exp(mean) })
	var moments [8]float64 // E[Y^k] = k! for a unit exponential
	f := 1.0
	for k := range moments {
		f *= float64(k + 1)
		moments[k] = f
	}
	checkMoments(t, "Exp", xs, func(x float64) float64 { return x / mean }, moments)
	checkTail(t, "Exp beyond 10 means", xs, func(x float64) bool { return x > 10*mean }, math.Exp(-10))
	for _, x := range xs {
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
	}
	if d := ksScaled(xs, func(x float64) float64 { return -math.Expm1(-x / mean) }); d >= ksCrit {
		t.Errorf("Exp: √n·D = %.3f, want < %v", d, ksCrit)
	}
}

func TestLogNormalDistribution(t *testing.T) {
	// A service-demand-like sigma for the law's shape and its tails.
	const mu, sigma = 1.0, 1.0
	xs := draw(103, func(r *RNG) float64 { return r.LogNormal(mu, sigma) })
	z := func(x float64) float64 { return (math.Log(x) - mu) / sigma }
	mean := math.Exp(mu + sigma*sigma/2)
	checkTail(t, "LogNormal beyond 10 means", xs, func(x float64) bool { return x > 10*mean },
		stdNormalCDF(-(math.Log(10)+sigma*sigma/2)/sigma))
	checkTail(t, "LogNormal above +4σ", xs, func(x float64) bool { return z(x) > 4 }, stdNormalCDF(-4))
	if d := ksScaled(xs, func(x float64) float64 { return stdNormalCDF(z(x)) }); d >= ksCrit {
		t.Errorf("LogNormal: √n·D = %.3f, want < %v", d, ksCrit)
	}

	// Raw moments need Var(X^4) = E[X^8] − E[X^4]² small enough to resolve at
	// n = 10⁶: E[X^k] = exp(kμ + k²σ²/2), so a narrower sigma.
	const mu2, sigma2 = 0.5, 0.25
	xs = draw(104, func(r *RNG) float64 { return r.LogNormal(mu2, sigma2) })
	var moments [8]float64
	for k := range moments {
		kk := float64(k + 1)
		moments[k] = math.Exp(kk*mu2 + kk*kk*sigma2*sigma2/2)
	}
	checkMoments(t, "LogNormal", xs, func(x float64) float64 { return x }, moments)
}
