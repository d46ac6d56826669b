package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded through splitmix64). Every stochastic component of the
// simulator draws from its own RNG split off a root seed, so adding or
// removing one component never perturbs the random streams of the others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent-looking streams; the same seed always gives the same stream.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed restarts r in place as the stream NewRNG(seed) returns, so an owner
// that embeds a generator can restart it without allocating.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 to expand the seed into four non-degenerate words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives a new independent generator from r, keyed by label. Use it to
// hand each simulated component its own stream.
func (r *RNG) Split(label uint64) *RNG {
	child := &RNG{}
	r.SplitInto(child, label)
	return child
}

// SplitInto is Split writing the derived generator into child in place: it
// draws from r exactly as Split does, and child then yields the stream Split
// would have returned.
func (r *RNG) SplitInto(child *RNG, label uint64) {
	seed := r.Uint64() ^ (label * 0xd1342543de82ef95)
	child.Reseed(seed)
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over one word.
// Use it to derive component seeds from small structured inputs (node index,
// window number) where a bare XOR of multiplied counters can collide across
// input pairs and correlate the derived streams.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	return mean * r.stdExp()
}

// Norm returns a normally distributed value with the given mean and standard
// deviation.
func (r *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.stdNorm()
}

// zigLayers is the layer count of both ziggurats (Marsaglia & Tsang, "The
// Ziggurat Method for Generating Random Variables", JSS 5(8), 2000). A try
// takes one Uint64: the low 8 bits pick the layer and the top 52 bits are
// the mantissa of a point across it. Bits 8–11 are unused.
const zigLayers = 256

// zigLayer is one ziggurat layer, at index i of its table. Layer i ≥ 1 is a
// rectangle of width x_i from height f(x_i) up to f(x_{i-1}), with x_0 = 0;
// layer 0 is the base strip under f(R) with the tail beyond R. Every layer
// has the same area, so a uniform layer index samples the area under f.
type zigLayer struct {
	// k is the mantissa bound under which the point lies inside the curve
	// for certain: scale·x_{i-1}/x_i (for layer 0, scale·R/width).
	k uint64
	// w is the layer's width over the mantissa scale.
	w float64
	// f is f(x_i), the height of the layer's bottom edge (1 for layer 0).
	f float64
}

// stdNorm returns a standard normal variate. 98.5% of tries land inside
// their layer's rectangle and cost one Uint64 and no transcendental call.
//
//pliant:hotpath
func (r *RNG) stdNorm() float64 {
	for {
		u := r.Uint64()
		i := u & 0xff
		j := int64(u) >> 12 // signed mantissa in [-2⁵¹, 2⁵¹)
		m := uint64(j)
		if j < 0 {
			m = uint64(-j)
		}
		x := float64(j) * normZig[i].w
		if m < normZig[i].k {
			return x
		}
		if i == 0 {
			// Marsaglia's tail beyond R: accept R+s, s ~ Exp(R), with
			// probability exp(-s²/2).
			for {
				s := -math.Log(1-r.Float64()) / normR
				e := -math.Log(1 - r.Float64())
				if e+e >= s*s {
					if j < 0 {
						return -normR - s
					}
					return normR + s
				}
			}
		}
		// The wedge between the curve and the next layer's edge.
		if f := normZig[i].f; f+r.Float64()*(normZig[i-1].f-f) < math.Exp(-x*x/2) {
			return x
		}
	}
}

// stdExp returns a unit-mean exponential variate, by the same ziggurat over
// exp(-x) with an unsigned 52-bit mantissa (97.8% of tries stop at the
// rectangle).
//
//pliant:hotpath
func (r *RNG) stdExp() float64 {
	for {
		u := r.Uint64()
		i := u & 0xff
		m := u >> 12 // mantissa in [0, 2⁵²)
		x := float64(m) * expZig[i].w
		if m < expZig[i].k {
			return x
		}
		if i == 0 {
			// The tail beyond R is R plus a fresh exponential.
			return expR - math.Log(1-r.Float64())
		}
		if f := expZig[i].f; f+r.Float64()*(expZig[i-1].f-f) < math.Exp(-x) {
			return x
		}
	}
}

// LogNormal returns a log-normally distributed value whose underlying normal
// has parameters mu and sigma. The distribution's mean is exp(mu+sigma²/2);
// heavy right tails (large sigma) model the service-time skew of interactive
// cloud requests.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a bounded Pareto sample with the given minimum and shape
// alpha. Smaller alpha yields heavier tails.
func (r *RNG) Pareto(xmin, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xmin / math.Pow(1-u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
