package core

// NewImpactAwarePolicy returns the extension the paper sketches in Sec. 6.5:
// instead of arbitrating among colocated approximate applications
// round-robin, it considers the relative impact of approximation on each,
// and adjusts quality/resources from the applications that are hurt the
// least. Concretely, when penalizing it steps the application with the
// lowest output-quality cost per variant step one level (rather than
// jumping), reclaims cores from the largest application, and when reverting
// restores the application whose quality is suffering most.
func NewImpactAwarePolicy() Policy { return newController("impact-aware", impactAware{}) }

type impactAware struct{}

func (impactAware) observe(Snapshot) {}

// approximate steps the app with the cheapest quality cost per step.
func (impactAware) approximate(s Snapshot) (int, int, bool) {
	best := -1
	for i, a := range s.Apps {
		if !a.Done && a.Variant < a.MostApproximate && (best < 0 || a.QualityPerStep < s.Apps[best].QualityPerStep) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, s.Apps[best].Variant + 1, true
}

func (impactAware) reclaim(s Snapshot) (int, bool) { return largestApp(s) }

// restore steps back the app with the dearest quality cost per step.
func (impactAware) restore(s Snapshot) (int, bool) {
	best, bestCost := -1, -1.0
	for i, a := range s.Apps {
		if !a.Done && a.Variant > 0 && a.QualityPerStep > bestCost {
			best, bestCost = i, a.QualityPerStep
		}
	}
	return best, best >= 0
}
