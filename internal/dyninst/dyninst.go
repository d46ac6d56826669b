// Package dyninst is the dynamic-recompilation substrate Pliant actuates
// through, modeled on how the paper uses DynamoRIO (Sec. 4.2): the
// application binary aggregates every version of each approximable function
// (one per variant, plus precise); each variant is mapped to a unique Linux
// real-time signal; and when the actuator sends a signal, the trapped
// handler performs a drwrap_replace()-style pointer swap that redirects the
// functions to the requested variant. Running under instrumentation costs a
// small per-app execution-time overhead (paper: 3.8% mean, 8.9% worst case),
// and coarse function-granularity switching keeps switch costs negligible
// next to instruction-level transformation.
package dyninst

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/sim"
)

// maxVariants is how many versions, precise included, the Linux real-time
// signals SIGRTMIN (34) through SIGRTMAX (64) can address, one signal each.
const maxVariants = 64 - 34 + 1

// DefaultSwitchLatency is the time from signal delivery to the function
// table swap taking effect: trapping the signal, looking up the recorded
// addresses, and re-pointing the wrapped functions.
const DefaultSwitchLatency = 200 * sim.Microsecond

// Process wraps a running approximate application under dynamic
// instrumentation.
type Process struct {
	eng     *sim.Engine
	app     *app.Instance
	pending sim.EventID // the in-flight swap, superseded by a newer signal
}

// Launch places an application under the instrumentation substrate with the
// given execution-time overhead (a fraction; the profile's DynOverhead for
// the paper's figure) and returns the controllable process. The application
// starts in precise mode.
func Launch(eng *sim.Engine, a *app.Instance, overhead float64) (*Process, error) {
	p := &Process{}
	if err := p.Init(eng, a, overhead); err != nil {
		return nil, err
	}
	return p, nil
}

// Init (re)initialises p in place as the process Launch returns, with no
// swap pending; a swap p scheduled earlier must not be pending either (run
// Init on a fresh or reset engine). On error p and a are unchanged.
func (p *Process) Init(eng *sim.Engine, a *app.Instance, overhead float64) error {
	if eng == nil || a == nil {
		return fmt.Errorf("dyninst: nil engine or app")
	}
	if n := a.VariantCount() + 1; n > maxVariants {
		return fmt.Errorf("dyninst: %s has %d variants, exceeding the real-time signal range",
			a.Profile().Name, n)
	}
	a.SetInstrumented(overhead)
	*p = Process{eng: eng, app: a}
	return nil
}

// App returns the wrapped application instance.
func (p *Process) App() *app.Instance { return p.app }

// SwitchTo signals the process to run the given variant. The trapped handler
// performs the function-table swap after DefaultSwitchLatency; a signal sent
// before a pending swap lands supersedes it. Signals to finished
// applications are ignored, as the process has exited.
func (p *Process) SwitchTo(variant int) error {
	if variant < 0 || variant > p.app.VariantCount() {
		return fmt.Errorf("dyninst: %s has no variant %d", p.app.Profile().Name, variant)
	}
	if p.app.Done() {
		return nil
	}
	p.eng.CancelID(p.pending)
	p.pending = p.eng.AfterTyped(DefaultSwitchLatency, (*swapEvent)(p), uint64(variant))
	return nil
}

// swapEvent is the process seen as the typed event its trapped handler
// fires, so a signal schedules its swap without allocating.
type swapEvent Process

// OnEvent lands the swap to the variant carried in arg.
func (e *swapEvent) OnEvent(_ sim.Time, arg uint64) {
	p := (*Process)(e)
	p.pending = sim.EventID{}
	p.swapTo(int(arg))
}

// swapTo performs the drwrap_replace-style pointer swap for every
// approximated function, then switches the application model.
//
//pliant:hotpath
func (p *Process) swapTo(variant int) {
	if p.app.Done() {
		return
	}
	p.app.SetVariant(variant)
}

// Variant returns the application's active variant index.
func (p *Process) Variant() int { return p.app.Variant() }
