// Package platform models the shared server hardware that interactive
// services and approximate applications are colocated on: physical cores,
// the shared last-level cache, memory bandwidth, and the NIC. It reproduces
// the experimental platform of the paper's Table 1 (dual-socket Xeon E5-2699
// v4) and the paper's allocation discipline: a single socket hosts the
// colocation, a few cores are dedicated to network interrupt handling, and
// the remaining cores are divided among tenants via core pinning.
package platform

import (
	"fmt"
	"slices"
)

// Spec describes a server model. All capacities refer to one socket, since
// the paper pins the entire colocation to a single socket to avoid NUMA
// effects.
type Spec struct {
	Name string

	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	BaseGHz        float64
	TurboGHz       float64
	L1KB           int
	L2KB           int
	LLCMB          float64 // shared last-level cache per socket
	LLCWays        int
	MemoryGB       int
	MemoryMHz      int
	MemBWGBs       float64 // achievable memory bandwidth per socket
	DiskTB         float64
	DiskRPM        int
	NetworkGbps    float64
	IRQCores       int // cores dedicated to soft-irq handling (paper: 6)
}

// TablePlatform returns the paper's Table 1 platform: Intel Xeon E5-2699 v4,
// 2 sockets × 22 cores × 2 threads, 55MB 20-way LLC, 128GB DDR4-2400, 1TB
// 7200RPM disk, 10Gbps network. Memory bandwidth is the nominal 4-channel
// DDR4-2400 figure (~76.8 GB/s/socket), derated to a realistic ~65 GB/s
// achievable.
func TablePlatform() Spec {
	return Spec{
		Name:           "Intel Xeon E5-2699 v4",
		Sockets:        2,
		CoresPerSocket: 22,
		ThreadsPerCore: 2,
		BaseGHz:        2.2,
		TurboGHz:       3.6,
		L1KB:           32,
		L2KB:           256,
		LLCMB:          55,
		LLCWays:        20,
		MemoryGB:       128,
		MemoryMHz:      2400,
		MemBWGBs:       65,
		DiskTB:         1,
		DiskRPM:        7200,
		NetworkGbps:    10,
		IRQCores:       6,
	}
}

// SmallPlatform returns a scaled-down server used by the fast test/bench
// profile: same architecture ratios, fewer cores, so scenarios simulate
// proportionally fewer requests. Load arithmetic is unchanged because all
// loads are expressed as fractions of measured saturation.
func SmallPlatform() Spec {
	s := TablePlatform()
	s.Name = "scaled " + s.Name
	s.CoresPerSocket = 12
	s.LLCMB = 30
	s.MemBWGBs = 36
	s.IRQCores = 2
	return s
}

// UsableCores returns the number of cores available to tenants on the
// colocation socket (one socket minus irq cores).
func (s Spec) UsableCores() int {
	n := s.CoresPerSocket - s.IRQCores
	if n < 0 {
		return 0
	}
	return n
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.Sockets < 1:
		return fmt.Errorf("platform: %q needs at least one socket", s.Name)
	case s.CoresPerSocket < 1:
		return fmt.Errorf("platform: %q needs at least one core per socket", s.Name)
	case s.IRQCores < 0 || s.IRQCores >= s.CoresPerSocket:
		return fmt.Errorf("platform: %q irq cores %d out of range", s.Name, s.IRQCores)
	case s.LLCMB <= 0:
		return fmt.Errorf("platform: %q needs positive LLC capacity", s.Name)
	case s.MemBWGBs <= 0:
		return fmt.Errorf("platform: %q needs positive memory bandwidth", s.Name)
	}
	return nil
}

// Allocation tracks how many cores each tenant owns on the colocation
// socket. Tenants are slots: the colocation's service is slot 0 and app i
// is slot i+1. Core identity matters only for accounting; scheduling treats
// a tenant's cores as fungible workers, exactly as cpuset pinning does at
// the modeled granularity. FairShare hands out every usable core and Move
// only moves them, so the counts always sum to the spec's usable cores.
type Allocation struct {
	spec   Spec
	counts []int // counts[slot] is the tenant's core count
}

// Init (re)initialises a in place as an allocation over spec's usable cores
// with no tenants, keeping its count storage for reuse. On error a is
// unchanged.
func (a *Allocation) Init(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	a.spec = spec
	a.counts = a.counts[:0]
	return nil
}

// Spec returns the server spec backing this allocation.
func (a *Allocation) Spec() Spec { return a.spec }

// Cores returns the number of cores the tenant at slot owns.
func (a *Allocation) Cores(slot int) int { return a.counts[slot] }

// FairShare splits the usable cores evenly across slots 0..tenants-1 (the
// paper's starting state: "a fair allocation of cores"). Remainder cores go
// to the lowest slots. Existing assignments are replaced, reusing the
// allocation's storage.
func (a *Allocation) FairShare(tenants int) error {
	if tenants < 1 {
		return fmt.Errorf("platform: FairShare needs at least one tenant, got %d", tenants)
	}
	a.counts = slices.Grow(a.counts[:0], tenants)[:tenants]
	total := a.spec.UsableCores()
	base, rem := total/tenants, total%tenants
	for i := range a.counts {
		a.counts[i] = base
		if i < rem {
			a.counts[i]++
		}
	}
	return nil
}

// Move transfers n cores from slot from to slot to. It refuses, changing
// nothing, a negative n or one larger than from owns; moving a tenant's last
// core is allowed (the paper reclaims cores one at a time but never models
// suspending the app entirely — callers enforce their own floor).
func (a *Allocation) Move(from, to, n int) error {
	if n < 0 || a.counts[from] < n {
		return fmt.Errorf("platform: moving %d cores from slot %d which has %d", n, from, a.counts[from])
	}
	a.counts[to] += n
	a.counts[from] -= n
	return nil
}
