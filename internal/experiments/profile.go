// Package experiments regenerates every table and figure of the paper's
// evaluation: the design-space exploration and per-variant impact study
// (Fig. 1), the dynamic-behavior traces (Figs. 4 and 6), the aggregate
// precise-vs-Pliant comparison (Fig. 5), the multi-colocation violin study
// (Fig. 7), the load and decision-interval sensitivity sweeps (Figs. 8 and
// 9), the approximation-vs-reclamation breakdown (Fig. 10), the platform
// specification (Table 1), and the instrumentation overhead statistics
// (Sec. 6.2). Each experiment returns a structured result that renders the
// same rows/series the paper reports.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/sim"
)

// Profile selects the execution scale of the experiments.
type Profile struct {
	// Name labels the profile in reports.
	Name string

	// TimeScale multiplies the services' request timescale; >1 simulates
	// proportionally fewer requests at identical utilization (see
	// DESIGN.md §6).
	TimeScale float64

	// Seed is the root seed; every scenario derives its own.
	Seed uint64

	// Apps restricts the application set where an experiment would
	// otherwise cover all 24 (nil = all).
	Apps []string

	// CombosPerArity is how many random 2- and 3-app combinations Fig. 7
	// samples per service (0 = enumerate all, as the paper does).
	CombosPerArity int

	// MaxRunSeconds bounds individual scenario runs in the impact study
	// and sweeps where app completion is not required.
	MaxRunSeconds int

	// Parallelism is the number of scenarios run concurrently (each on its
	// own engine) and the shard count of each scheduling run; 0 means
	// GOMAXPROCS. Neither changes any simulated result.
	Parallelism int
}

// Fast returns the scaled profile used by tests and testing.B benchmarks:
// identical load arithmetic, ~16× fewer simulated requests, highlighted-app
// subset for per-variant studies, sampled combinations for Fig. 7.
func Fast() Profile {
	return Profile{
		Name:      "fast",
		TimeScale: 16,
		Seed:      42,
		Apps: []string{
			"canneal", "raytrace", "Bayesian", "SNP", "water_spatial", "streamcluster",
		},
		CombosPerArity: 8,
		MaxRunSeconds:  12,
	}
}

// Full returns the paper-scale profile: real request rates, all 24
// applications, exhaustive Fig. 7 combinations. Hours of CPU; used by
// cmd/pliant-bench -full.
func Full() Profile {
	return Profile{
		Name:           "full",
		TimeScale:      1,
		Seed:           42,
		Apps:           nil,
		CombosPerArity: 0,
		MaxRunSeconds:  0,
	}
}

// AppNames resolves the profile's application set.
func (p Profile) AppNames() []string {
	if len(p.Apps) == 0 {
		return app.Names()
	}
	return append([]string(nil), p.Apps...)
}

// maxDuration converts MaxRunSeconds to a scenario bound (0 = unbounded).
func (p Profile) maxDuration() sim.Duration {
	if p.MaxRunSeconds <= 0 {
		return 0
	}
	return sim.Duration(p.MaxRunSeconds) * sim.Second
}

// parallelism resolves the worker count.
func (p Profile) parallelism() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for i in [0, n) on the profile's worker pool and
// collects the first error. Scenario runs are independent simulations, so
// this parallelism cannot perturb determinism.
func (p Profile) forEach(n int, fn func(i int) error) error {
	workers := p.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstEr
}

// seedFor derives a stable per-task seed from the profile seed and a label,
// so adding tasks never perturbs the seeds of existing ones.
func (p Profile) seedFor(label string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h ^ p.Seed
}

// Renderer is implemented by every experiment result: Render returns the
// rows/series the paper's corresponding table or figure reports.
type Renderer interface {
	Render() string
}

func fmtRatio(v float64) string { return fmt.Sprintf("%5.2fx", v) }
