package classify

import (
	"fmt"
	"sort"

	"moespark/internal/mathx"
)

// This file is the KNN gate's reference implementation: the original
// O(samples) linear scan with a stable sort by distance. The indexed query
// path (knnindex.go) must return bit-identical results — same label, same
// distance, same insertion-order tie-break — and the differential property
// test in knnindex_test.go pins the two against each other, mirroring how
// engine_ref.go pins the indexed event engine against its quadratic
// reference. The scan also remains the live path for K > 1 (ablation
// configurations), where majority voting needs the full distance ranking.

// neigh is one ranked neighbour of the linear scan.
type neigh struct {
	dist  float64
	label int
}

// predictLinear ranks every training sample by (optionally biased) distance
// and returns the majority label among the K nearest plus the distance to
// the single nearest. The stable sort means equal distances keep insertion
// order, so the first-inserted sample wins ties — a property the scheduler's
// golden tests depend on.
//
//moevet:refpair predictIndexed
func (k *KNN) predictLinear(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	if !k.fitted {
		return 0, 0, ErrNotFitted
	}
	if len(x) != k.dim {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), k.dim)
	}
	neighs := make([]neigh, len(k.samples))
	for i, s := range k.samples {
		d := mathx.Euclidean(x, s.X)
		if bias != nil {
			d *= bias(s.Label)
		}
		neighs[i] = neigh{dist: d, label: s.Label}
	}
	sort.SliceStable(neighs, func(a, b int) bool { return neighs[a].dist < neighs[b].dist })
	kk := k.K
	if kk > len(neighs) {
		kk = len(neighs)
	}
	votes := map[int]int{}
	for _, n := range neighs[:kk] {
		votes[n.label]++
	}
	best, bestVotes := neighs[0].label, -1
	for _, n := range neighs[:kk] { // iterate in distance order for stable ties
		if v := votes[n.label]; v > bestVotes {
			best, bestVotes = n.label, v
		}
	}
	return best, neighs[0].dist, nil
}
