package obs

import (
	"slices"
	"testing"
)

// refTracer is the reference ring for FuzzTracerGrowth: the whole capacity
// allocated up front, record i at ring[i % cap(ring)]. Reserve has no
// counterpart here, since a preallocated ring always has room.
type refTracer struct {
	ring   []Record
	n      uint64
	byKind [kindCount]uint64
}

func newRefTracer(capacity int) *refTracer {
	return &refTracer{ring: make([]Record, 0, capacity)}
}

func (t *refTracer) Emit(r Record) {
	if int(r.Kind) < kindCount {
		t.byKind[r.Kind]++
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = t.ring[:len(t.ring)+1]
	}
	t.ring[t.n%uint64(cap(t.ring))] = r
	t.n++
}

func (t *refTracer) Dropped() uint64 { return t.n - uint64(len(t.ring)) }

func (t *refTracer) CountOf(k Kind) uint64 {
	if int(k) >= kindCount {
		return 0
	}
	return t.byKind[k]
}

func (t *refTracer) RecordsSince(cursor uint64, fn func(Record)) uint64 {
	for i := max(cursor, t.Dropped()); i < t.n; i++ {
		fn(t.ring[i%uint64(cap(t.ring))])
	}
	return t.n
}

// FuzzTracerGrowth holds the growing ring to the preallocated one. The first
// byte picks a capacity of 1–64; each following pair is one op: Reserve(0–80),
// Emit of one record (of a kind that may be out of range), or a drain from a
// cursor that lags the total. After every op the two tracers must agree on
// every observable: Records, Len, Total, Dropped, CountOf, and each drain's
// records and returned cursor.
func FuzzTracerGrowth(f *testing.F) {
	// Capacity 4: past the capacity with reserves between the emits, lagging
	// drains on both sides of the wrap.
	f.Add([]byte{3, 1, 1, 0, 2, 1, 2, 1, 3, 2, 0, 0, 80, 1, 1, 1, 4, 1, 5, 2, 1,
		1, 1, 0, 3, 1, 1, 1, 1, 2, 3, 0, 5, 1, 7, 2, 0, 2, 9})
	// Capacity 1: every record after the first wraps.
	f.Add([]byte{0, 1, 1, 1, 1, 2, 0, 0, 1, 1, 1, 2, 5})
	// Capacity 64 reserved whole, then a few emits.
	f.Add([]byte{63, 0, 80, 1, 1, 1, 2, 1, 3, 2, 2})
	// Capacity 5, no reserves: every growth comes from Emit.
	f.Add([]byte{4, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 1, 1, 2, 1, 3,
		1, 4, 1, 5, 2, 2, 2, 20})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		capacity := 1 + int(prog[0])%64
		tr, ref := NewTracer(capacity), newRefTracer(capacity)
		for pc := 1; pc+1 < len(prog); pc += 2 {
			op, x := prog[pc]%3, prog[pc+1]
			switch op {
			case 0:
				tr.Reserve(int(x) % 81)
			case 1:
				r := Record{At: int64(tr.Total()), Kind: Kind(x % uint8(kindCount+1)), Node: int32(x), A: int64(pc)}
				tr.Emit(r)
				ref.Emit(r)
			case 2:
				cursor := tr.Total() - min(uint64(x), tr.Total())
				var got, want []Record
				gotNext := tr.RecordsSince(cursor, func(r Record) { got = append(got, r) })
				wantNext := ref.RecordsSince(cursor, func(r Record) { want = append(want, r) })
				if !slices.Equal(got, want) || gotNext != wantNext {
					t.Fatalf("op %d: RecordsSince(%d) = %v cursor %d, reference %v cursor %d",
						pc/2, cursor, got, gotNext, want, wantNext)
				}
			}
			if tr.Len() != len(ref.ring) || tr.Total() != ref.n || tr.Dropped() != ref.Dropped() {
				t.Fatalf("op %d: len %d total %d dropped %d, reference %d %d %d",
					pc/2, tr.Len(), tr.Total(), tr.Dropped(), len(ref.ring), ref.n, ref.Dropped())
			}
			for k := Kind(0); int(k) <= kindCount; k++ {
				if tr.CountOf(k) != ref.CountOf(k) {
					t.Fatalf("op %d: CountOf(%d) = %d, reference %d", pc/2, k, tr.CountOf(k), ref.CountOf(k))
				}
			}
			var got, want []Record
			tr.Records(func(r Record) { got = append(got, r) })
			ref.RecordsSince(0, func(r Record) { want = append(want, r) })
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: Records = %v, reference %v", pc/2, got, want)
			}
			if cap(tr.ring) > capacity {
				t.Fatalf("op %d: ring of %d records exceeds the capacity %d", pc/2, cap(tr.ring), capacity)
			}
		}
	})
}

// TestTracerReserveAllocsOnce pins the reserved batch: from an empty ring,
// reserving k records and emitting them makes exactly one allocation, the
// one Reserve makes, and sizes the ring to exactly k.
func TestTracerReserveAllocsOnce(t *testing.T) {
	const k = 100
	tr := NewTracer(1 << 10)
	r := Record{At: 5, Kind: KindEpisode, Node: 2, Window: 1, A: 7, B: 1, C: 3}
	allocs := testing.AllocsPerRun(1, func() {
		tr.ring, tr.n = nil, 0
		tr.Reserve(k)
		for i := 0; i < k; i++ {
			tr.Emit(r)
		}
	})
	if allocs != 1 {
		t.Fatalf("Reserve(%d) and %d Emit calls allocate %v times in total, want 1", k, k, allocs)
	}
	if cap(tr.ring) != k || tr.Len() != k {
		t.Fatalf("ring cap %d len %d after the batch, want %d and %d", cap(tr.ring), tr.Len(), k, k)
	}
}
