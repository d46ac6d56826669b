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
	"sort"
	"strings"
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

// TenantID identifies a colocated workload on a server.
type TenantID string

// Allocation tracks which cores each tenant owns on the colocation socket.
// Core identity matters only for accounting; scheduling treats a tenant's
// cores as fungible workers, exactly as cpuset pinning does at the modeled
// granularity.
type Allocation struct {
	spec   Spec
	counts map[TenantID]int
	order  []TenantID
	used   int // running sum of counts, so Free is O(1)
}

// NewAllocation returns an empty allocation over spec's usable cores.
func NewAllocation(spec Spec) (*Allocation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Allocation{spec: spec, counts: make(map[TenantID]int)}, nil
}

// Spec returns the server spec backing this allocation.
func (a *Allocation) Spec() Spec { return a.spec }

// Free returns the number of unassigned cores. The used total is maintained
// incrementally, so this is O(1) — it sits on the controller's
// reclaim/return path.
func (a *Allocation) Free() int {
	return a.spec.UsableCores() - a.used
}

// Cores returns the number of cores tenant currently owns.
func (a *Allocation) Cores(t TenantID) int { return a.counts[t] }

// Tenants returns tenant IDs in registration order.
func (a *Allocation) Tenants() []TenantID {
	return append([]TenantID(nil), a.order...)
}

// Grant gives n additional cores to tenant, registering it if new.
func (a *Allocation) Grant(t TenantID, n int) error {
	if n < 0 {
		return fmt.Errorf("platform: negative grant %d to %s", n, t)
	}
	if n > a.Free() {
		return fmt.Errorf("platform: granting %d cores to %s exceeds %d free", n, t, a.Free())
	}
	if _, ok := a.counts[t]; !ok {
		a.order = append(a.order, t)
	}
	a.counts[t] += n
	a.used += n
	return nil
}

// Revoke takes n cores away from tenant. It fails rather than leave a tenant
// with negative cores; revoking a tenant's last core is allowed (the paper
// reclaims cores one at a time but never models suspending the app entirely —
// callers enforce their own floor).
func (a *Allocation) Revoke(t TenantID, n int) error {
	if n < 0 {
		return fmt.Errorf("platform: negative revoke %d from %s", n, t)
	}
	if a.counts[t] < n {
		return fmt.Errorf("platform: revoking %d cores from %s which has %d", n, t, a.counts[t])
	}
	a.counts[t] -= n
	a.used -= n
	return nil
}

// Move transfers n cores from one tenant to another atomically.
func (a *Allocation) Move(from, to TenantID, n int) error {
	if err := a.Revoke(from, n); err != nil {
		return err
	}
	if err := a.Grant(to, n); err != nil {
		// Roll back; Grant can only fail on bookkeeping bugs since Revoke
		// freed exactly n cores.
		a.counts[from] += n
		a.used += n
		return err
	}
	return nil
}

// FairShare splits the usable cores evenly across the given tenants (the
// paper's starting state: "a fair allocation of cores"). Remainder cores go
// to the earliest tenants. Existing assignments are replaced, reusing the
// allocation's storage.
func (a *Allocation) FairShare(tenants ...TenantID) error {
	if len(tenants) == 0 {
		return fmt.Errorf("platform: FairShare needs at least one tenant")
	}
	// A socket hosts a handful of tenants, so a pairwise duplicate check
	// beats building a set.
	for i, t := range tenants {
		if slices.Contains(tenants[:i], t) {
			return fmt.Errorf("platform: duplicate tenant %s", t)
		}
	}
	clear(a.counts)
	a.order = append(a.order[:0], tenants...)
	a.used = 0
	total := a.spec.UsableCores()
	base := total / len(tenants)
	rem := total % len(tenants)
	for i, t := range tenants {
		c := base
		if i < rem {
			c++
		}
		a.counts[t] = c
		a.used += c
	}
	return nil
}

// Snapshot returns a stable-ordered copy of the per-tenant core counts.
func (a *Allocation) Snapshot() map[TenantID]int {
	out := make(map[TenantID]int, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// String renders the allocation compactly for traces and logs.
func (a *Allocation) String() string {
	ids := append([]TenantID(nil), a.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteString("cores{")
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", id, a.counts[id])
	}
	fmt.Fprintf(&b, " free=%d}", a.Free())
	return b.String()
}
