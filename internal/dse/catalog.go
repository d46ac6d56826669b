package dse

import (
	"fmt"
	"slices"
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

// VariantsFor returns the runtime variant table for an application as a
// private copy the caller may modify. Catalog applications are memoized by
// name: the paper performs this exploration once per application ("unless
// the application design changes"). Any other profile — including a custom
// one that reuses a catalog name — is explored afresh on every call, so it
// never receives another profile's table.
func VariantsFor(prof app.Profile) ([]approx.Effect, error) {
	v, err := VariantTable(prof)
	return slices.Clone(v), err
}

// VariantTable is VariantsFor without the copy: for a catalog application it
// returns the memoized table itself, shared by every caller and goroutine,
// so callers must only read it. It serves the per-episode path, which hands
// the table to app.Instance.Init and reads it through Instance.Effect.
func VariantTable(prof app.Profile) ([]approx.Effect, error) {
	if !app.IsCatalog(prof) {
		return exploreVariants(prof)
	}
	variantsMu.Lock()
	defer variantsMu.Unlock()
	if v, ok := variantsCache[prof.Name]; ok {
		return v, nil
	}
	v, err := exploreVariants(prof)
	if err != nil {
		return nil, err
	}
	variantsCache[prof.Name] = v
	return v, nil
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
