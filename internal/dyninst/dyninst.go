// Package dyninst is the dynamic-recompilation substrate Pliant actuates
// through, modeled on how the paper uses DynamoRIO (Sec. 4.2): the
// application binary aggregates every version of each approximable function
// (one per variant, plus precise); at launch the tool reads the program
// addresses of all versions; each approximate variant is mapped to a unique
// Linux real-time signal; and when the actuator sends a signal, the trapped
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

// SigRTMin is the first Linux real-time signal number; variant k is mapped
// to signal SigRTMin+k, so signal SigRTMin requests precise execution.
const SigRTMin = 34

// SigRTMax bounds the real-time signal range on Linux.
const SigRTMax = 64

// DefaultSwitchLatency is the time from signal delivery to the function
// table swap taking effect: trapping the signal, looking up the recorded
// addresses, and re-pointing the wrapped functions.
const DefaultSwitchLatency = 200 * sim.Microsecond

// FunctionVersion is one compiled version of an approximable function inside
// the aggregated binary.
type FunctionVersion struct {
	Function string // the function housing the approximable site
	Variant  int    // 0 = precise
	Address  uint64 // program address recorded at start-up
}

// Process wraps a running approximate application under dynamic
// instrumentation.
type Process struct {
	eng *sim.Engine
	app *app.Instance

	// active is the variant every approximated function dispatches to:
	// swapTo re-points all of them at once, so one index plus the site
	// position determines each function's address (see versionAddress).
	active  int
	latency sim.Duration

	signals  uint64
	switches uint64
	pending  sim.EventID // the in-flight swap, superseded by a newer signal
}

// Options tunes a Launch.
type Options struct {
	// SwitchLatency overrides DefaultSwitchLatency when positive.
	SwitchLatency sim.Duration
	// OverheadOverride replaces the profile's instrumentation overhead when
	// non-negative; use a negative value to keep the profile's figure.
	OverheadOverride float64
}

// Launch places an application under the instrumentation substrate: it
// builds the function version table from the app's approximable sites,
// applies the instrumentation overhead, and returns the controllable
// process. The application starts in precise mode.
func Launch(eng *sim.Engine, a *app.Instance, opts Options) (*Process, error) {
	if eng == nil || a == nil {
		return nil, fmt.Errorf("dyninst: nil engine or app")
	}
	prof := a.Profile()
	nVariants := a.VariantCount() + 1
	if SigRTMin+nVariants-1 > SigRTMax {
		return nil, fmt.Errorf("dyninst: %s has %d variants, exceeding the real-time signal range",
			prof.Name, nVariants)
	}
	p := &Process{
		eng:     eng,
		app:     a,
		latency: DefaultSwitchLatency,
	}
	if opts.SwitchLatency > 0 {
		p.latency = opts.SwitchLatency
	}
	overhead := prof.DynOverhead
	if opts.OverheadOverride >= 0 {
		overhead = opts.OverheadOverride
	}

	a.SetInstrumented(overhead)
	return p, nil
}

// textBase is where the synthetic layout starts the aggregated binary's
// text.
const textBase = 0x400000

// versionAddress is the program address of variant v of the function at
// site index si, as DynamoRIO reads it at program start. The synthetic
// layout places variants at fixed strides, giving each function/variant
// pair a stable, unique address, so the table is derived, never stored.
func versionAddress(si, v int) uint64 {
	return textBase + uint64(si)*0x10000 + uint64(v)*0x100
}

// App returns the wrapped application instance.
func (p *Process) App() *app.Instance { return p.app }

// Table returns the function version table: every version of every
// approximated function, site by site, precise first. It is built on
// demand; the process itself stores only the active variant.
func (p *Process) Table() []FunctionVersion {
	sites := p.app.Profile().Sites
	n := p.app.VariantCount() + 1
	table := make([]FunctionVersion, 0, len(sites)*n)
	for si, site := range sites {
		for v := 0; v < n; v++ {
			table = append(table, FunctionVersion{Function: site.Name, Variant: v, Address: versionAddress(si, v)})
		}
	}
	return table
}

// ActiveAddress returns the program address the given function currently
// dispatches to. Profiles may repeat a site name; the last site of that
// name owns it, as a name-keyed dispatch table would record.
func (p *Process) ActiveAddress(function string) (uint64, error) {
	sites := p.app.Profile().Sites
	for si := len(sites) - 1; si >= 0; si-- {
		if sites[si].Name == function {
			return versionAddress(si, p.active), nil
		}
	}
	return 0, fmt.Errorf("dyninst: unknown function %q", function)
}

// SignalFor returns the signal mapped to a variant index.
func (p *Process) SignalFor(variant int) (int, error) {
	if variant < 0 || variant > p.app.VariantCount() {
		return 0, fmt.Errorf("dyninst: %s has no variant %d", p.app.Profile().Name, variant)
	}
	return SigRTMin + variant, nil
}

// VariantFor returns the variant index a signal requests.
func (p *Process) VariantFor(signal int) (int, error) {
	v := signal - SigRTMin
	if v < 0 || v > p.app.VariantCount() {
		return 0, fmt.Errorf("dyninst: signal %d not mapped for %s", signal, p.app.Profile().Name)
	}
	return v, nil
}

// Deliver sends a Linux signal to the process. The trapped handler performs
// the function-table swap after the switch latency; delivering a new signal
// before a pending swap lands supersedes it. Signals to finished
// applications are ignored, as the process has exited.
func (p *Process) Deliver(signal int) error {
	variant, err := p.VariantFor(signal)
	if err != nil {
		return err
	}
	p.signals++
	if p.app.Done() {
		return nil
	}
	p.eng.CancelID(p.pending)
	p.pending = p.eng.AfterTyped(p.latency, (*swapEvent)(p), uint64(variant))
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

// SwitchTo requests the given variant, the convenience form the actuator
// uses: look up the mapped signal and deliver it.
func (p *Process) SwitchTo(variant int) error {
	sig, err := p.SignalFor(variant)
	if err != nil {
		return err
	}
	return p.Deliver(sig)
}

// swapTo performs the drwrap_replace-style pointer swap for every
// approximated function, then switches the application model.
//
//pliant:hotpath
func (p *Process) swapTo(variant int) {
	if p.app.Done() {
		return
	}
	p.active = variant
	if variant != p.app.Variant() {
		p.switches++
	}
	p.app.SetVariant(variant)
}

// Signals returns how many signals were delivered to the process.
func (p *Process) Signals() uint64 { return p.signals }

// Switches returns how many effective variant swaps occurred.
func (p *Process) Switches() uint64 { return p.switches }

// Variant returns the application's active variant index.
func (p *Process) Variant() int { return p.app.Variant() }
