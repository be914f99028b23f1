package classify

import (
	"fmt"
	"math"
)

// KNN is the K-nearest-neighbours classifier the paper deploys as its expert
// selector. Beyond the Classifier interface it exposes the distance to the
// nearest neighbour, which the paper uses as a prediction-confidence signal
// (fall back to a conservative policy when the target program is far from
// every training program).
//
// K=1 queries — the paper's deployed configuration and the scheduler's
// per-arrival hot path — are served by an exact k-d tree index (knnindex.go)
// instead of the linear scan; the scan is kept as the reference path
// (knn_ref.go) and remains live for K > 1 and for the Linear opt-out.
type KNN struct {
	// K is the number of neighbours consulted; the paper effectively uses
	// the single nearest training program (K=1).
	K int
	// Linear forces the reference linear scan even for K=1 queries. The
	// indexed path is bit-identical (pinned by a differential test), so this
	// exists only for A/B benchmarking and debugging.
	Linear bool

	dim     int
	fitted  bool
	samples []Sample
	// index is the exact nearest-neighbour tree over samples, rebuilt
	// eagerly on every Fit/Add so queries stay read-only (trained models are
	// shared across concurrent experiment runs).
	index *kdTree
	// labels holds the distinct sample labels in first-insertion order; the
	// indexed path scans it to lower-bound the bias multiplier for pruning.
	labels []int
}

// NewKNN returns a KNN classifier with the given neighbourhood size.
func NewKNN(k int) *KNN { return &KNN{K: k} }

var _ Classifier = (*KNN)(nil)

// Name implements Classifier.
func (k *KNN) Name() string { return fmt.Sprintf("KNN(k=%d)", k.K) }

// Fit stores the training set (KNN is a lazy learner). One advantage the
// paper highlights: adding a new memory function requires no retraining,
// just new labelled samples.
func (k *KNN) Fit(samples []Sample) error {
	if k.K <= 0 {
		return fmt.Errorf("%w: K=%d", ErrInvalidParam, k.K)
	}
	dim, _, err := checkSamples(samples)
	if err != nil {
		return err
	}
	k.samples = make([]Sample, len(samples))
	copy(k.samples, samples)
	k.dim = dim
	k.fitted = true
	k.reindex()
	return nil
}

// reindex rebuilds the nearest-neighbour tree and the distinct-label list
// from the current training set. Called on every mutation (Fit, Add) so the
// query path never writes.
func (k *KNN) reindex() {
	k.index = buildKD(k.samples)
	k.labels = k.labels[:0]
	seen := map[int]bool{}
	for _, s := range k.samples {
		if !seen[s.Label] {
			seen[s.Label] = true
			k.labels = append(k.labels, s.Label)
		}
	}
}

// Clone returns an independent copy of the classifier: mutations of either
// copy's training set (Add) never affect the other. Adaptive gates clone
// their selector before self-training so a shared trained model stays
// immutable.
func (k *KNN) Clone() *KNN {
	cp := *k
	cp.samples = make([]Sample, len(k.samples))
	copy(cp.samples, k.samples)
	// The tree is immutable and references samples by index, so the copy may
	// share it until its own next mutation rebuilds; the labels slice must be
	// owned, or the copy's reindex would scribble over this one's backing
	// array.
	cp.labels = make([]int, len(k.labels))
	copy(cp.labels, k.labels)
	return &cp
}

// Add inserts one more labelled sample without refitting anything else.
func (k *KNN) Add(s Sample) error {
	if !k.fitted {
		return ErrNotFitted
	}
	if len(s.X) != k.dim {
		return ErrDimMismatch
	}
	k.samples = append(k.samples, s)
	k.reindex()
	return nil
}

// Predict implements Classifier.
func (k *KNN) Predict(x []float64) (int, error) {
	label, _, err := k.PredictWithDistance(x)
	return label, err
}

// PredictWithDistance returns the majority label among the K nearest
// neighbours and the Euclidean distance to the single nearest one.
func (k *KNN) PredictWithDistance(x []float64) (label int, nearest float64, err error) {
	return k.predict(x, nil)
}

// PredictBiased is PredictWithDistance with per-label distance scaling, the
// online-gate hook of an adaptive mixture: each neighbour's distance is
// multiplied by bias(label) before ranking, so a label whose recent
// predictions have been poor (bias > 1) must be proportionally closer in
// feature space to win the vote. bias must return positive finite values; a
// nil bias reproduces PredictWithDistance exactly. The returned distance is
// the biased distance of the nearest neighbour under the scaling.
func (k *KNN) PredictBiased(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	return k.predict(x, bias)
}

// predict routes a query to the indexed path when it applies (K=1, index
// built, Linear opt-out unset) and to the reference linear scan otherwise.
// Both paths are bit-identical for K=1; see knnindex.go for the argument.
func (k *KNN) predict(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	if k.K == 1 && !k.Linear && k.index != nil {
		return k.predictIndexed(x, bias)
	}
	return k.predictLinear(x, bias)
}

// predictIndexed answers a K=1 query through the k-d tree.
func (k *KNN) predictIndexed(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	if !k.fitted {
		return 0, 0, ErrNotFitted
	}
	if len(x) != k.dim {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), k.dim)
	}
	// The pruning bound scales geometric distance by the smallest bias any
	// label can contribute; with no bias every multiplier is 1.
	minBias := 1.0
	if bias != nil {
		minBias = math.Inf(1)
		for _, l := range k.labels {
			if b := bias(l); b < minBias {
				minBias = b
			}
		}
	}
	idx, d := k.index.nearest(k.samples, x, bias, minBias)
	return k.samples[idx].Label, d, nil
}
