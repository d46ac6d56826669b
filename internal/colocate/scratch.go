package colocate

import (
	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/dse"
)

// Scratch is a reusable episode arena. It owns the whole simulated world of
// one episode: the scenario with its event engine (queue and lane arrays),
// RNG streams, core allocation, contention model, service instance (with
// its pending-request queue), open-loop client, monitor (with its ticker and
// interval histogram), physics ticker, the built-in runtimes' controller
// (with its arbiters' state and its action buffer), whole-run histogram,
// result trace (with its point buffers), per-interval p99 buffer,
// contention and policy buffers and result rows; and per app slot, the
// application instance and its instrumented process. A tenant is a slot:
// the core allocation and the contention buffers hold the service at slot 0
// and app i at slot i+1, so nothing names a tenant but its index. Across
// episodes the Scratch also keeps, per application name, the resolved
// catalog profile and variant table and the trace series keys. An online
// scheduler runs thousands of short colocation episodes; threading one
// Scratch per worker through Config.Scratch lets every episode after the
// first re-initialise this state in place instead of allocating it.
//
// A Scratch is owned by one sequential stream of episodes — it is not safe
// for concurrent use. Reuse is invisible to results: every component restarts
// from the state a fresh build constructs, so runs are bit-identical with and
// without a Scratch. The one thing a caller sees is ownership: the
// Result.Trace and Result.Apps of an episode run on a Scratch belong to the
// Scratch and are recycled by its next episode.
//
// The zero value is ready to use; the arena is built on the first episode.
// Every accessor below is nil-safe: on a nil Scratch it returns fresh state,
// so the scenario builder has one path with or without reuse.
type Scratch struct {
	scn  *scenario
	apps map[string]*appData
}

// scenario returns the arena's scenario, building it on first use; without
// a scratch, a fresh one.
func (sc *Scratch) scenario() *scenario {
	if sc == nil {
		return &scenario{}
	}
	if sc.scn == nil {
		sc.scn = &scenario{}
	}
	return sc.scn
}

// appData returns what the arena keeps for the application name, creating
// it on first use; without a scratch, a fresh entry.
func (sc *Scratch) appData(name string) *appData {
	if sc == nil {
		return newAppData(name)
	}
	d, ok := sc.apps[name]
	if !ok {
		if sc.apps == nil {
			sc.apps = make(map[string]*appData)
		}
		d = newAppData(name)
		sc.apps[name] = d
	}
	return d
}

// appData is what describes an application name independently of any one
// episode and of the slot it runs in: its trace series keys and, once
// resolved from the catalog, its profile and shared variant table.
type appData struct {
	name string
	keys seriesKeys

	// prof is the catalog profile (with its own Sites copy), valid once
	// variants is non-nil. Both are read-only: a resumed job scales
	// NominalExecSec on a copy of prof, sharing its Sites.
	prof     app.Profile
	variants []approx.Effect
}

func newAppData(name string) *appData {
	return &appData{
		name: name,
		keys: seriesKeys{variant: "variant." + name, yielded: "yielded." + name},
	}
}

// resolve returns the application's profile and variant table. A profile in
// cfg.CustomApps shadows the catalog and is resolved afresh every episode,
// since it may change from one to the next; a catalog profile is resolved
// once and kept.
func (d *appData) resolve(cfg Config) (app.Profile, []approx.Effect, error) {
	for _, p := range cfg.CustomApps {
		if p.Name == d.name {
			variants, err := dse.VariantTable(p)
			return p, variants, err
		}
	}
	if d.variants == nil {
		prof, err := app.ByName(d.name)
		if err != nil {
			return app.Profile{}, nil, err
		}
		variants, err := dse.VariantTable(prof)
		if err != nil {
			return app.Profile{}, nil, err
		}
		d.prof, d.variants = prof, variants
	}
	return d.prof, d.variants, nil
}
