package sim

import "math"

// Constants of exp's argument reduction x = k·ln2/256 + r. expLn2HiN holds
// the top 34 bits of ln2/256, so k·expLn2HiN is exact for every |k| < 2¹⁹
// (|x| ≤ 745 needs k up to 275,150); expLn2LoN is the rest of ln2/256.
const (
	expInvLn2N = 0x1.71547652b82fep+08 // 256/ln2
	expLn2HiN  = 0x1.62e42fef8p-09
	expLn2LoN  = 0x1.1cf79abc9e3b4p-44
	// expShift is 1.5·2⁵²: adding it rounds a float below 2⁵¹ in magnitude
	// to the nearest integer, which lands in the low bits of the sum.
	expShift = 0x1.8p52

	// Taylor coefficients of e^r - 1 beyond the linear term. |r| ≤ ln2/512,
	// so the first omitted term, r⁶/720, is below 2⁻⁶⁶.
	expC2 = 1.0 / 2
	expC3 = 1.0 / 6
	expC4 = 1.0 / 24
	expC5 = 1.0 / 120

	// math.Exp's limits: above expOverflow the result is +Inf, below
	// expUnderflow it is 0.
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
)

// exp returns e^x for the per-request samplers (RNG.LogNormal and the
// ziggurat wedge tests), within 1 ulp of e^x and of math.Exp wherever
// math.Exp is itself within 1 ulp (TestExpWithinOneULP). It is pure Go and
// rounds every product with an explicit float64 conversion, which the Go
// spec forbids the compiler to fuse into a multiply-add, so it returns the
// same bits on every host; math.Exp picks an FMA code path by CPU on amd64.
//
// x = k·ln2/256 + r with |r| ≤ ln2/512, and e^x = 2^(k/256)·e^r. The table
// gives 2^(j/256), j = k mod 256, as a float64 hi and a relative tail; a
// degree-5 polynomial gives e^r - 1, and the result is scale + scale·tmp
// with scale = hi·2^⌊k/256⌋ and tmp = tail + (e^r - 1).
func exp(x float64) float64 {
	kd := float64(x*expInvLn2N) + expShift
	ki := math.Float64bits(kd) // the low bits hold k in two's complement
	kd -= expShift
	r := x - float64(kd*expLn2HiN) - float64(kd*expLn2LoN)
	t := &expTab[ki&255]
	r2 := float64(r * r)
	tmp := t.tail + r + float64(r2*(expC2+float64(r*expC3))) + float64(float64(r2*r2)*(expC4+float64(r*expC5)))
	// The exponent field of sbits wraps modulo 2¹², so outside (-708, 709),
	// NaN and ±Inf included, expSpecial adjusts it before use. Inside, the
	// scale and the result are normal floats.
	sbits := math.Float64bits(t.hi) + ki>>8<<52
	if !(x > -708 && x < 709) {
		return expSpecial(x, sbits, tmp)
	}
	scale := math.Float64frombits(sbits)
	return scale + float64(scale*tmp)
}

// expSpecial is exp outside (-708, 709): NaN, ±Inf, overflow to +Inf,
// underflow to 0, and results near the largest or in the subnormal range.
func expSpecial(x float64, sbits uint64, tmp float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	}
	if x > 0 {
		// Build the result 2¹⁰⁰⁹ lower, then scale it back exactly.
		scale := math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (scale + float64(scale*tmp))
	}
	// The result is below 2⁻¹⁰²¹: build it 2¹⁰²² higher. Where it is
	// subnormal, one rounding to the subnormal grid (spacing 2⁻⁵² at this
	// scale, that of [1, 2)) comes from adding 1 with the low part carried,
	// so the final scaling by 2⁻¹⁰²² is exact.
	scale := math.Float64frombits(sbits + 1022<<52)
	st := float64(scale * tmp)
	y := scale + st
	if y < 1 {
		lo := scale - y + st
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = (hi + lo) - 1
	}
	return y * 0x1p-1022
}
