package dse

import (
	"fmt"
	"sync"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
)

// ExploreApp runs the exploration for a catalog application with the paper's
// default options, honoring the profile's retained-variant cap.
func ExploreApp(prof app.Profile) (Result, error) {
	opts := DefaultOptions()
	opts.MaxVariants = prof.MaxVariants
	return Explore(prof, opts)
}

var (
	variantsMu    sync.Mutex
	variantsCache = map[string][]approx.Effect{}
)

// VariantsFor returns the runtime variant table for a catalog application,
// memoized: the paper performs this exploration once per application
// ("unless the application design changes").
func VariantsFor(prof app.Profile) ([]approx.Effect, error) {
	variantsMu.Lock()
	defer variantsMu.Unlock()
	if v, ok := variantsCache[prof.Name]; ok {
		return append([]approx.Effect(nil), v...), nil
	}
	res, err := ExploreApp(prof)
	if err != nil {
		return nil, err
	}
	if len(res.Selected) == 0 {
		return nil, fmt.Errorf("dse: %s has no viable approximate variants", prof.Name)
	}
	v := res.Variants()
	variantsCache[prof.Name] = v
	return append([]approx.Effect(nil), v...), nil
}
