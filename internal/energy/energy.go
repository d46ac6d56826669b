// Package energy models per-node power draw and accumulates energy over
// simulated virtual time — the measurement axis the paper implies but never
// quantifies. Pliant trades output quality for tail latency; adding a power
// model behind platform.Spec lets the cluster layers ask how many watts that
// approximation slack buys at equal QoS.
//
// The model is the standard datacenter abstraction (Fan/Weber/Barroso): a
// socket draws a large idle floor plus a dynamic component that grows with
// utilization, and the dynamic component scales roughly with the cube of
// frequency (f·V², with V tracking f). Servers are famously not
// energy-proportional — the idle floor is around half of peak — which is why
// parking whole nodes and lowering frequency states are the levers that
// matter, and why a scheduler that can concentrate work (because
// approximation absorbs the interference) saves real energy.
package energy

import (
	"fmt"
	"math"

	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sim"
)

// wattsPerCoreGHz calibrates peak socket power from core count and base
// frequency: the paper's Table 1 part (Xeon E5-2699 v4, 22 cores at 2.2 GHz)
// has a 145 W TDP, i.e. ~3.0 W per core·GHz.
const wattsPerCoreGHz = 3.0

// Non-proportionality constants: idle draw as a fraction of peak (Barroso &
// Hölzle report ~50% for classic servers; modern parts do a little better),
// parked (suspend-to-RAM) draw as a fraction of peak, and the fraction of
// idle power that scales with the frequency state (clock tree and uncore).
const (
	idleFrac      = 0.45
	parkedFrac    = 0.04
	idleFreqShare = 0.30
)

// Model is a per-node power curve derived from a platform.Spec. All powers
// are per colocation socket, matching the repo's single-socket discipline.
type Model struct {
	Name string

	// IdleW is the draw at zero utilization in the nominal frequency state;
	// PeakW the draw at full utilization in the nominal state; ParkedW the
	// draw of a parked (suspended) node.
	IdleW   float64
	PeakW   float64
	ParkedW float64

	// Alpha is the utilization exponent of the dynamic component. 1 is the
	// linear Fan/Weber/Barroso model; slightly sublinear exponents model
	// memory-bound mixes that saturate power before utilization.
	Alpha float64

	// FreqGHz is the ascending ladder of frequency states a node can run in.
	// The last entry is the nominal (base) frequency the rest of the repo's
	// timing model assumes; lower states run proportionally slower and are
	// what the approx-for-watts policy spends slack on.
	FreqGHz []float64

	// WakeJ is the fixed energy cost of unparking a node (resume, cache
	// rewarm); WakeDelay is the matching latency before the node can place
	// jobs again.
	WakeJ     float64
	WakeDelay sim.Duration
}

// ModelFor derives a power model from a server spec: peak power from core
// count and base frequency at the TDP calibration above, idle and parked
// floors from the non-proportionality fractions, and a three-state frequency
// ladder at 60%, 80%, and 100% of base frequency.
func ModelFor(spec platform.Spec) Model {
	peak := float64(spec.CoresPerSocket) * spec.BaseGHz * wattsPerCoreGHz
	return Model{
		Name:      spec.Name,
		IdleW:     idleFrac * peak,
		PeakW:     peak,
		ParkedW:   parkedFrac * peak,
		Alpha:     1,
		FreqGHz:   []float64{0.6 * spec.BaseGHz, 0.8 * spec.BaseGHz, spec.BaseGHz},
		WakeJ:     5 * peak, // ~5 s of peak draw: resume plus cache rewarm
		WakeDelay: 4 * sim.Second,
	}
}

// Validate reports model configuration errors.
func (m Model) Validate() error {
	switch {
	case m.PeakW <= 0:
		return fmt.Errorf("energy: %q needs positive peak power", m.Name)
	case m.IdleW < 0 || m.IdleW > m.PeakW:
		return fmt.Errorf("energy: %q idle power %v outside [0, peak]", m.Name, m.IdleW)
	case m.ParkedW < 0 || m.ParkedW > m.IdleW:
		return fmt.Errorf("energy: %q parked power %v outside [0, idle]", m.Name, m.ParkedW)
	case m.Alpha <= 0:
		return fmt.Errorf("energy: %q needs positive utilization exponent", m.Name)
	case len(m.FreqGHz) == 0:
		return fmt.Errorf("energy: %q needs at least one frequency state", m.Name)
	}
	for i, f := range m.FreqGHz {
		if f <= 0 {
			return fmt.Errorf("energy: %q frequency state %d must be positive", m.Name, i)
		}
		if i > 0 && f <= m.FreqGHz[i-1] {
			return fmt.Errorf("energy: %q frequency ladder must ascend", m.Name)
		}
	}
	return nil
}

// Nominal returns the index of the nominal (highest) frequency state.
func (m Model) Nominal() int { return len(m.FreqGHz) - 1 }

// FreqAt returns the frequency of state s, clamped into the ladder.
func (m Model) FreqAt(s int) float64 {
	if s < 0 {
		s = 0
	}
	if s >= len(m.FreqGHz) {
		s = len(m.FreqGHz) - 1
	}
	return m.FreqGHz[s]
}

// SlowdownAt returns the execution-time multiplier of state s relative to
// nominal: a node at 60% of base frequency serves requests 1/0.6 ≈ 1.67×
// slower, which consumers model as proportionally higher offered load.
func (m Model) SlowdownAt(s int) float64 {
	return m.FreqGHz[m.Nominal()] / m.FreqAt(s)
}

// Power returns the draw in watts at the given utilization (clamped to
// [0, 1]) and frequency in GHz. The frequency-dependent parts scale with
// (f/nominal)³; a share of the idle floor is frequency-invariant (fans,
// disks, NIC, DRAM refresh).
func (m Model) Power(util, freqGHz float64) float64 {
	if util < 0 {
		util = 0
	} else if util > 1 {
		util = 1
	}
	nominal := m.FreqGHz[len(m.FreqGHz)-1]
	phi := freqGHz / nominal
	phi3 := phi * phi * phi
	idle := m.IdleW * (1 - idleFreqShare + idleFreqShare*phi3)
	dyn := (m.PeakW - m.IdleW) * phi3
	if m.Alpha == 1 {
		return idle + dyn*util
	}
	return idle + dyn*math.Pow(util, m.Alpha)
}

// PowerAt is Power at frequency state s.
func (m Model) PowerAt(util float64, s int) float64 {
	return m.Power(util, m.FreqAt(s))
}

// Accumulator integrates power over virtual time into joules. It is plain
// arithmetic — no allocation, no wall clock — so it can sit directly on the
// per-interval telemetry path and stay byte-deterministic under fixed seeds.
type Accumulator struct {
	// Joules is the energy accumulated so far.
	Joules float64

	last sim.Time
}

// Reset rewinds the accumulator to instant at with zero energy.
func (a *Accumulator) Reset(at sim.Time) {
	a.Joules = 0
	a.last = at
}

// Advance accrues energy at the given constant draw from the last observed
// instant to now. Out-of-order instants are ignored rather than accruing
// negative energy.
func (a *Accumulator) Advance(now sim.Time, watts float64) {
	if now <= a.last {
		return
	}
	a.Joules += watts * now.Sub(a.last).Seconds()
	a.last = now
}

// AddJoules accrues a fixed energy cost (e.g. a wake transition) without
// advancing time.
func (a *Accumulator) AddJoules(j float64) { a.Joules += j }

// Last returns the last instant the accumulator advanced to.
func (a *Accumulator) Last() sim.Time { return a.last }
