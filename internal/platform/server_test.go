package platform

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTablePlatformMatchesPaper(t *testing.T) {
	s := TablePlatform()
	// Table 1 of the paper.
	if s.Sockets != 2 {
		t.Errorf("Sockets = %d, want 2", s.Sockets)
	}
	if s.CoresPerSocket != 22 {
		t.Errorf("CoresPerSocket = %d, want 22", s.CoresPerSocket)
	}
	if s.ThreadsPerCore != 2 {
		t.Errorf("ThreadsPerCore = %d, want 2", s.ThreadsPerCore)
	}
	if s.BaseGHz != 2.2 || s.TurboGHz != 3.6 {
		t.Errorf("frequency = %v/%v, want 2.2/3.6", s.BaseGHz, s.TurboGHz)
	}
	if s.LLCMB != 55 || s.LLCWays != 20 {
		t.Errorf("LLC = %vMB/%d-way, want 55MB/20-way", s.LLCMB, s.LLCWays)
	}
	if s.MemoryGB != 128 || s.MemoryMHz != 2400 {
		t.Errorf("memory = %dGB@%d, want 128GB@2400", s.MemoryGB, s.MemoryMHz)
	}
	if s.NetworkGbps != 10 {
		t.Errorf("network = %v, want 10Gbps", s.NetworkGbps)
	}
	if s.IRQCores != 6 {
		t.Errorf("IRQCores = %d, want 6 (paper Sec. 5)", s.IRQCores)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Table 1 platform invalid: %v", err)
	}
	if s.UsableCores() != 16 {
		t.Errorf("UsableCores = %d, want 22-6=16", s.UsableCores())
	}
}

func TestSmallPlatformValid(t *testing.T) {
	s := SmallPlatform()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.UsableCores() <= 0 {
		t.Fatal("small platform has no usable cores")
	}
	if s.UsableCores() >= TablePlatform().UsableCores() {
		t.Fatal("small platform should be smaller than the paper platform")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := TablePlatform()
	cases := map[string]func(*Spec){
		"no sockets":   func(s *Spec) { s.Sockets = 0 },
		"no cores":     func(s *Spec) { s.CoresPerSocket = 0 },
		"irq negative": func(s *Spec) { s.IRQCores = -1 },
		"irq all":      func(s *Spec) { s.IRQCores = s.CoresPerSocket },
		"no llc":       func(s *Spec) { s.LLCMB = 0 },
		"no bw":        func(s *Spec) { s.MemBWGBs = 0 },
	}
	for name, mutate := range cases {
		s := base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", name)
		}
	}
}

func TestAllocationMove(t *testing.T) {
	a, _ := NewAllocation(TablePlatform())
	if err := a.FairShare(2); err != nil {
		t.Fatal(err)
	}
	before := a.Cores(0) + a.Cores(1)
	if err := a.Move(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if a.Cores(0)+a.Cores(1) != before {
		t.Fatal("Move changed total core count")
	}
	if a.Cores(0) != 9 || a.Cores(1) != 7 {
		t.Fatalf("cores after Move: svc=%d app=%d, want 9 and 7", a.Cores(0), a.Cores(1))
	}
	if err := a.Move(1, 0, 1000); err == nil {
		t.Fatal("impossible Move succeeded")
	}
	if err := a.Move(1, 0, -1); err == nil {
		t.Fatal("negative Move succeeded")
	}
	if a.Cores(0) != 9 || a.Cores(1) != 7 {
		t.Fatalf("refused Moves changed the counts: svc=%d app=%d", a.Cores(0), a.Cores(1))
	}
}

func TestFairShare(t *testing.T) {
	a, _ := NewAllocation(TablePlatform())
	if err := a.FairShare(3); err != nil {
		t.Fatal(err)
	}
	total := a.Spec().UsableCores()
	sum := 0
	counts := []int{a.Cores(0), a.Cores(1), a.Cores(2)}
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		t.Fatalf("fair share sums to %d, want %d", sum, total)
	}
	// No tenant differs from another by more than one core, and the
	// remainder goes to the lowest slots.
	for _, c := range counts {
		if c < total/3 || c > total/3+1 {
			t.Fatalf("unfair share: %v", counts)
		}
	}
	if counts[0] != 6 || counts[1] != 5 || counts[2] != 5 {
		t.Fatalf("fair share of 16 cores = %v, want [6 5 5]", counts)
	}
	if err := a.FairShare(0); err == nil {
		t.Fatal("FairShare with no tenants succeeded")
	}
}

// Property: any sequence of FairShares (over any tenant count, reusing the
// storage) and Moves keeps every count non-negative and their sum at the
// usable cores, and a refused Move changes nothing.
func TestAllocationInvariantProperty(t *testing.T) {
	f := func(tenants uint8, ops []uint16) bool {
		a, _ := NewAllocation(SmallPlatform())
		k := int(tenants)%6 + 1
		if err := a.FairShare(k); err != nil {
			return false
		}
		counts := func() []int {
			c := make([]int, k)
			for i := range c {
				c[i] = a.Cores(i)
			}
			return c
		}
		for _, op := range ops {
			if op>>14 == 3 { // one op in four shares afresh
				k = int(op)%6 + 1
				if err := a.FairShare(k); err != nil {
					return false
				}
			} else {
				from, to := int(op)%k, int(op>>4)%k
				n := int(op>>8)%8 - 1 // -1..6: refusals as well as moves
				before := counts()
				if err := a.Move(from, to, n); err != nil && !slices.Equal(counts(), before) {
					return false
				}
			}
			sum := 0
			for _, c := range counts() {
				if c < 0 {
					return false
				}
				sum += c
			}
			if sum != a.Spec().UsableCores() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
