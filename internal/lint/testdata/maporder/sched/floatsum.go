package schedfix

import "sort"

// SumMap accumulates in map-iteration order: float addition does not
// associate, so the sum's last bits change per process.
func SumMap(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `\[maporder\] range over map feeds ordered output \(float accumulation into "sum"`
		sum += v
	}
	return sum
}

// SumMapExpr spells the accumulation as sum = sum + x: same hazard.
func SumMapExpr(m map[string]float64) float64 {
	sum := 0.0
	for k := range m { // want `\[maporder\] range over map feeds ordered output \(float accumulation into "sum"`
		sum = sum + m[k]
	}
	return sum
}

// SumSorted is the sanctioned fix — collect keys, sort, then sum: no
// finding.
func SumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// CountMap shows integer accumulation over a map range stays legal:
// integer addition associates, so order cannot change the result.
func CountMap(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
