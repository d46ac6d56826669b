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

// VariantsFor returns the runtime variant table for an application. Catalog
// applications are memoized by name: the paper performs this exploration once
// per application ("unless the application design changes"). Any other
// profile — including a custom one that reuses a catalog name — is explored
// afresh on every call, so it never receives another profile's table.
func VariantsFor(prof app.Profile) ([]approx.Effect, error) {
	if !app.IsCatalog(prof) {
		return exploreVariants(prof)
	}
	variantsMu.Lock()
	defer variantsMu.Unlock()
	if v, ok := variantsCache[prof.Name]; ok {
		return append([]approx.Effect(nil), v...), nil
	}
	v, err := exploreVariants(prof)
	if err != nil {
		return nil, err
	}
	variantsCache[prof.Name] = v
	return append([]approx.Effect(nil), v...), nil
}

// exploreVariants runs the exploration and returns its variant table.
func exploreVariants(prof app.Profile) ([]approx.Effect, error) {
	res, err := ExploreApp(prof)
	if err != nil {
		return nil, err
	}
	if len(res.Selected) == 0 {
		return nil, fmt.Errorf("dse: %s has no viable approximate variants", prof.Name)
	}
	return res.Variants(), nil
}
