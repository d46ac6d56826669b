package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// expPrec is the working precision of the math/big references below.
const expPrec = 256

// bigLn2 returns ln 2 = Σ 1/(k·2^k) to expPrec bits.
func bigLn2() *big.Float {
	sum := new(big.Float).SetPrec(expPrec)
	for k := 1; k <= expPrec+8; k++ {
		term := new(big.Float).SetMantExp(big.NewFloat(1), -k).SetPrec(expPrec)
		sum.Add(sum, term.Quo(term, new(big.Float).SetInt64(int64(k))))
	}
	return sum
}

// expTableWant builds exp's table from 2^(j/256), the eighth square root of
// 2^j, rounding each part to float64 once.
func expTableWant() (tab [256]struct{ hi, tail float64 }) {
	for j := range tab {
		v := new(big.Float).SetMantExp(big.NewFloat(1), j).SetPrec(expPrec)
		for i := 0; i < 8; i++ {
			v.Sqrt(v)
		}
		hi, _ := v.Float64()
		tail := new(big.Float).SetPrec(expPrec).Sub(v, big.NewFloat(hi))
		tab[j].hi = hi
		tab[j].tail, _ = tail.Quo(tail, big.NewFloat(hi)).Float64()
	}
	return tab
}

// TestExpTable rebuilds exp's table and reduction constants from math/big
// and requires the committed ones to match bit for bit.
func TestExpTable(t *testing.T) {
	if want := expTableWant(); want != expTab {
		var b strings.Builder
		b.WriteString("// Code generated by TestExpTable from math/big; DO NOT EDIT.\n\npackage sim\n\n")
		b.WriteString("// expTab holds 2^(j/256) for j in [0, 256) as hi, the nearest float64, and\n")
		b.WriteString("// tail, the relative remainder (2^(j/256) - hi) / hi.\n")
		b.WriteString("var expTab = [256]struct{ hi, tail float64 }{\n")
		for _, e := range want {
			fmt.Fprintf(&b, "\t{%s, %s},\n", strconv.FormatFloat(e.hi, 'x', -1, 64), strconv.FormatFloat(e.tail, 'x', -1, 64))
		}
		b.WriteString("}\n")
		t.Fatalf("expTab differs from 2^(j/256); exp_table.go should read:\n%s", b.String())
	}

	ln2N := bigLn2()
	ln2N.Quo(ln2N, big.NewFloat(256))
	if inv, _ := new(big.Float).SetPrec(expPrec).Quo(big.NewFloat(1), ln2N).Float64(); inv != expInvLn2N {
		t.Errorf("expInvLn2N = %x, want %x", expInvLn2N, inv)
	}
	hi, _ := new(big.Float).SetPrec(34).Set(ln2N).Float64()
	lo, _ := new(big.Float).SetPrec(expPrec).Sub(ln2N, big.NewFloat(hi)).Float64()
	if hi != expLn2HiN || lo != expLn2LoN {
		t.Errorf("ln2/256 split = (%x, %x), want (%x, %x)", expLn2HiN, expLn2LoN, hi, lo)
	}
}

// bigExp returns e^x rounded once to float64: the Taylor series of
// e^(x/2^24) at expPrec bits, squared 24 times.
func bigExp(x float64) float64 {
	y := new(big.Float).SetMantExp(big.NewFloat(x), -24).SetPrec(expPrec)
	sum := new(big.Float).SetPrec(expPrec).SetInt64(1)
	term := new(big.Float).SetPrec(expPrec).SetInt64(1)
	for k := 1; k < 30; k++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetInt64(int64(k)))
		sum.Add(sum, term)
	}
	for i := 0; i < 24; i++ {
		sum.Mul(sum, sum)
	}
	f, _ := sum.Float64()
	return f
}

// ulpDiff is the distance between two non-negative floats in units of the
// last place, counting across binades and into the subnormals.
func ulpDiff(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// TestExpWithinOneULP holds exp to 1 ulp of math.Exp on 10⁶ points over
// [-745, 709.78], half on a grid and half drawn at random. math.Exp is not
// everywhere within 1 ulp itself: its amd64 assembly is 2 ulp off at a few
// points per million and returns +Inf from about 709.44 up to the overflow
// threshold, where e^x is still finite. Where the two differ by more than
// 1 ulp, exp must be within 1 ulp of e^x rounded once (math/big), and no
// further from it than math.Exp is.
func TestExpWithinOneULP(t *testing.T) {
	const n = 1_000_000
	const lo, hi = -745.0, 709.78
	r := NewRNG(1)
	referred := 0
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i/2)/(n/2)
		if i%2 == 1 {
			x = lo + (hi-lo)*r.Float64()
		}
		got, lib := exp(x), math.Exp(x)
		if ulpDiff(got, lib) <= 1 {
			continue
		}
		referred++
		ref := bigExp(x)
		if d := ulpDiff(got, ref); d > 1 || d > ulpDiff(lib, ref) {
			t.Fatalf("exp(%v) = %v is %d ulp from e^x = %v; math.Exp gives %v", x, got, d, ref, lib)
		}
	}
	t.Logf("%d of %d points more than 1 ulp from math.Exp, each within 1 ulp of e^x", referred, n)
}

// TestExpSpecialValues pins the edges of exp's domain to math.Exp.
func TestExpSpecialValues(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), // exactly 1
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(expOverflow, math.Inf(1)), 710, // overflow to +Inf
		-708.4, -720, -740, -745, expUnderflow, // subnormal results
		math.Nextafter(expUnderflow, math.Inf(-1)), -746, -1e4, // underflow to 0
		1e-300, -1e-300, 1, -1,
	} {
		got, want := exp(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// At the overflow threshold itself e^x is the float just below
	// MaxFloat64, which exp returns and the amd64 math.Exp rounds to +Inf.
	if got, want := exp(expOverflow), bigExp(expOverflow); got != want || math.IsInf(got, 0) {
		t.Errorf("exp(%v) = %v, want %v", expOverflow, got, want)
	}
}

// expPinnedSHA256 is the sha256 of exp's bits at expPinnedInputs. It must be
// the same on every host: CI also runs this test with GODEBUG=cpu.fma=off
// and built with GOAMD64=v3.
const expPinnedSHA256 = "1d6b7a4c6ee00bb1d7a59698e94bc4976a072e17aad7cbd068eb81ba96d36ea6"

// expPinnedInputs returns 2¹⁶ points: the domain's edges, a grid over
// [-746, 710] and small offsets around zero.
func expPinnedInputs() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), expOverflow, expUnderflow, -708, 709}
	for i := 0; len(xs) < 1<<16; i++ {
		xs = append(xs, -746+1456*float64(i)/(1<<15), math.Ldexp(float64(i%512)-256, -(i%60)))
	}
	return xs[:1<<16]
}

func TestExpPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, x := range expPinnedInputs() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(exp(x)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != expPinnedSHA256 {
		t.Fatalf("exp over the pinned inputs hashes to %s, want %s", got, expPinnedSHA256)
	}
}

// BenchmarkExpKernel is exp alone, beside math.Exp, over the log-normal
// demand's usual range.
func BenchmarkExpKernel(b *testing.B) {
	for _, k := range []struct {
		name string
		f    func(float64) float64
	}{{"sim", exp}, {"math", math.Exp}} {
		b.Run(k.name, func(b *testing.B) {
			x := -12.0
			for i := 0; i < b.N; i++ {
				sampleSink += k.f(x)
				if x += 1e-6; x > 3 {
					x = -12
				}
			}
		})
	}
}
