package sim

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"os"
	"strconv"
	"testing"
)

// The ziggurat tables in ziggurat_tables.go are generated literals. This file
// rebuilds them from the closed form and requires an exact match; regenerate
// with
//
//	PLIANT_ZIGGURAT=write go test -run TestZigguratTables ./internal/sim
//
// Every product below that could be fused into a multiply-add is wrapped in
// an explicit float64 conversion, which the Go spec makes round separately.
// That rules out fusion, not every platform difference: math.Exp and
// math.Log have assembly versions on some architectures, which need not
// round like the pure-Go code. The committed tables were recorded on
// linux/amd64; the exact match holds wherever math.Exp, Log and Erfc round
// the same way.

// zigDensity is one side of an unnormalised density decreasing on [0, ∞)
// with f(0) = 1: the function, its inverse on (0, 1], and the area under it
// beyond x.
type zigDensity struct {
	f, inv, tail func(float64) float64
	// lo < R < hi brackets the tail start of a closed 256-layer ziggurat.
	lo, hi float64
	// scale is 2^bits of the draw's mantissa.
	scale float64
}

var (
	normDensity = zigDensity{
		f:     func(x float64) float64 { return math.Exp(-float64(x*x) / 2) },
		inv:   func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) },
		tail:  func(x float64) float64 { return math.Sqrt(math.Pi/2) * math.Erfc(x/math.Sqrt2) },
		lo:    3,
		hi:    4,
		scale: 1 << 51,
	}
	expDensity = zigDensity{
		f:     func(x float64) float64 { return math.Exp(-x) },
		inv:   func(y float64) float64 { return -math.Log(y) },
		tail:  func(x float64) float64 { return math.Exp(-x) },
		lo:    7,
		hi:    8.5,
		scale: 1 << 52,
	}
)

// stack builds the layer edges x[1..255] for tail start r: every layer and
// the base strip (the rectangle under f(r) plus the tail) have area v. It
// returns the height the top layer would need to reach, which is 1 when
// the ziggurat closes exactly at f(0); +Inf when the layers overshoot it
// before the top.
func (d zigDensity) stack(r float64) (x [zigLayers]float64, v, top float64) {
	v = float64(r*d.f(r)) + d.tail(r)
	x[zigLayers-1] = r
	for i := zigLayers - 2; i >= 1; i-- {
		y := v/x[i+1] + d.f(x[i+1])
		if y >= 1 {
			return x, v, math.Inf(1)
		}
		x[i] = d.inv(y)
	}
	return x, v, v/x[1] + d.f(x[1])
}

// solveR bisects to the pair of adjacent doubles where the ziggurat turns
// from undershooting f(0) to overshooting it, and returns the one whose top
// is closer to 1.
func (d zigDensity) solveR() float64 {
	lo, hi := d.lo, d.hi // top(lo) > 1 > top(hi)
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if _, _, top := d.stack(mid); top > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, _, tlo := d.stack(lo)
	_, _, thi := d.stack(hi)
	if math.Abs(tlo-1) < math.Abs(thi-1) {
		return lo
	}
	return hi
}

// build returns R and the layer table for d.
func (d zigDensity) build() (float64, [zigLayers]zigLayer) {
	r := d.solveR()
	x, v, _ := d.stack(r)
	var t [zigLayers]zigLayer
	// Layer 0 is the base strip: a rectangle of width q = v/f(r), whose part
	// beyond r stands for the tail.
	q := v / d.f(r)
	t[0] = zigLayer{k: uint64(float64(d.scale*r) / q), w: q / d.scale, f: 1}
	for i := 1; i < zigLayers; i++ {
		t[i] = zigLayer{k: uint64(float64(d.scale*x[i-1]) / x[i]), w: x[i] / d.scale, f: d.f(x[i])}
	}
	return r, t
}

func TestZigguratTables(t *testing.T) {
	nr, nt := normDensity.build()
	er, et := expDensity.build()
	if os.Getenv("PLIANT_ZIGGURAT") == "write" {
		src, err := zigSource(nr, nt, er, et)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("ziggurat_tables.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote ziggurat_tables.go (%d bytes)", len(src))
		return
	}
	check := func(name string, r, wantR float64, tab, want *[zigLayers]zigLayer, d zigDensity) {
		if r != wantR {
			t.Errorf("%s: R = %v, committed %v", name, r, wantR)
		}
		for i := range tab {
			if tab[i] != want[i] {
				t.Errorf("%s: layer %d = %+v, committed %+v", name, i, tab[i], want[i])
				break
			}
		}
		// The solved R closes the stack at f(0) to within a few ulps.
		if _, _, top := d.stack(r); math.Abs(top-1) > 1e-14 {
			t.Errorf("%s: top layer reaches %v, want 1", name, top)
		}
	}
	check("normal", nr, normR, &nt, &normZig, normDensity)
	check("exponential", er, expR, &et, &expZig, expDensity)
}

// zigSource renders ziggurat_tables.go.
func zigSource(nr float64, nt [zigLayers]zigLayer, er float64, et [zigLayers]zigLayer) ([]byte, error) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	b.WriteString("// Code generated by TestZigguratTables with PLIANT_ZIGGURAT=write; DO NOT EDIT.\n\n")
	b.WriteString("package sim\n\n")
	fmt.Fprintf(&b, "// normR and expR are where the 256-layer ziggurats' tails begin, solved so\n")
	fmt.Fprintf(&b, "// the top layer closes at f(0) = 1 to the last bit the stack can resolve.\n")
	fmt.Fprintf(&b, "const (\n\tnormR = %s\n\texpR = %s\n)\n\n", g(nr), g(er))
	table := func(name, doc string, t [zigLayers]zigLayer) {
		fmt.Fprintf(&b, "// %s %s\nvar %s = [zigLayers]zigLayer{\n", name, doc, name)
		for _, l := range t {
			fmt.Fprintf(&b, "\t{%d, %s, %s},\n", l.k, g(l.w), g(l.f))
		}
		b.WriteString("}\n\n")
	}
	table("normZig", "is the layer table of exp(-x²/2), mantissa scale 2⁵¹.", nt)
	table("expZig", "is the layer table of exp(-x), mantissa scale 2⁵².", et)
	return format.Source(bytes.TrimSuffix(b.Bytes(), []byte("\n")))
}
