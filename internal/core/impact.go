package core

// impactAware is the ImpactAware arbiter.
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
