// Package xgboost implements gradient-boosted regression trees from
// scratch: the learned cost model behind Bifrost's XGBTuner, standing in
// for the XGBoost library (Chen & Guestrin, KDD 2016) that AutoTVM uses.
// The implementation is a classic exact-greedy GBT: squared-error loss,
// depth-limited regression trees fit to residuals, shrinkage, and optional
// per-tree feature/row subsampling for variance reduction.
package xgboost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Params configures training.
type Params struct {
	Rounds       int     // number of boosting rounds (trees)
	LearningRate float64 // shrinkage applied to every tree's output
	MaxDepth     int     // maximum tree depth
	MinSamples   int     // minimum samples to attempt a split
	Lambda       float64 // L2 regularisation on leaf values
	SubsampleRow float64 // fraction of rows sampled per tree (0 or 1 = all)
	Seed         int64
}

// DefaultParams mirrors the conservative settings AutoTVM uses for its
// transfer cost model.
func DefaultParams() Params {
	return Params{Rounds: 50, LearningRate: 0.2, MaxDepth: 4, MinSamples: 2, Lambda: 1.0, SubsampleRow: 1.0}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	value       float64
	left, right int // child indices; -1 for leaves
}

// tree is a regression tree stored as a flat node arena.
type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	n := &t.nodes[0]
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n.value
}

// Model is a trained gradient-boosted ensemble.
type Model struct {
	params Params
	base   float64
	trees  []tree
}

// Train fits a model to the rows of x (features) and targets y.
func Train(x [][]float64, y []float64, p Params) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("xgboost: need matching non-empty x (%d) and y (%d)", len(x), len(y))
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("xgboost: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	if p.Rounds <= 0 || p.MaxDepth <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgboost: invalid params %+v", p)
	}
	if p.MinSamples < 2 {
		p.MinSamples = 2
	}
	rng := rand.New(rand.NewSource(p.Seed))

	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	m := &Model{params: p, base: base}
	residual := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	allRows := make([]int, len(y))
	for i := range allRows {
		allRows[i] = i
	}
	b := newBuilder(x, residual, p)
	for round := 0; round < p.Rounds; round++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		rows := allRows
		if p.SubsampleRow > 0 && p.SubsampleRow < 1 {
			k := int(math.Ceil(p.SubsampleRow * float64(len(y))))
			perm := rng.Perm(len(y))[:k]
			sort.Ints(perm)
			rows = perm
		}
		t := b.build(rows)
		m.trees = append(m.trees, t)
		grown := len(rows) == len(y)
		for i := range pred {
			var v float64
			if grown {
				v = t.nodes[b.leaf[i]].value // no tree walk: row i was grown into this leaf
			} else {
				v = t.predict(x[i])
			}
			pred[i] += p.LearningRate * v
		}
	}
	return m, nil
}

// fv is one (feature value, target) pair of a split search.
type fv struct{ v, t float64 }

// cmpFV orders pairs by feature value. It is negative exactly when a.v <
// b.v, so slices.SortFunc permutes like sort.Slice with the same strict
// less, and sums within runs of equal values keep their order.
func cmpFV(a, b fv) int {
	if a.v < b.v {
		return -1
	}
	if a.v > b.v {
		return 1
	}
	return 0
}

// builder grows regression trees over one dataset, reusing its scratch
// across nodes and rounds.
type builder struct {
	x      [][]float64
	target []float64
	p      Params
	t      tree
	// rows holds the current node's rows at [lo:hi) of rows[depth%2]; a
	// split partitions them stably into the same range of the other buffer.
	rows [2][]int
	vals []fv
	// leaf[r] is the node row r landed in during the last build.
	leaf []int
}

func newBuilder(x [][]float64, target []float64, p Params) *builder {
	n := len(target)
	return &builder{
		x: x, target: target, p: p,
		rows: [2][]int{make([]int, n), make([]int, n)},
		vals: make([]fv, 0, n),
		leaf: make([]int, n),
	}
}

// build greedily grows one regression tree on the given rows.
func (b *builder) build(rows []int) tree {
	b.t = tree{}
	copy(b.rows[0], rows)
	b.grow(0, len(rows), 0)
	return b.t
}

func (b *builder) grow(lo, hi, depth int) int {
	rows := b.rows[depth%2][lo:hi]
	idx := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{feature: -1, left: -1, right: -1})
	var sum float64
	for _, r := range rows {
		sum += b.target[r]
	}
	// Regularised leaf value.
	b.t.nodes[idx].value = sum / (float64(len(rows)) + b.p.Lambda)
	if depth >= b.p.MaxDepth || len(rows) < b.p.MinSamples {
		return b.markLeaf(rows, idx)
	}
	feature, threshold, ok := b.bestSplit(rows)
	if !ok {
		return b.markLeaf(rows, idx)
	}
	dst := b.rows[(depth+1)%2][lo:hi]
	nl := 0
	for _, r := range rows {
		if b.x[r][feature] <= threshold {
			dst[nl] = r
			nl++
		}
	}
	if nl == 0 || nl == len(rows) {
		return b.markLeaf(rows, idx)
	}
	j := nl
	for _, r := range rows {
		if !(b.x[r][feature] <= threshold) {
			dst[j] = r
			j++
		}
	}
	left := b.grow(lo, lo+nl, depth+1)
	right := b.grow(lo+nl, hi, depth+1)
	n := &b.t.nodes[idx]
	n.feature, n.threshold, n.left, n.right = feature, threshold, left, right
	return idx
}

func (b *builder) markLeaf(rows []int, idx int) int {
	for _, r := range rows {
		b.leaf[r] = idx
	}
	return idx
}

// bestSplit scans every feature for the exact split minimising the
// regularised squared-error objective (maximum variance-reduction gain).
func (b *builder) bestSplit(rows []int) (int, float64, bool) {
	dim := len(b.x[0])
	var total float64
	for _, r := range rows {
		total += b.target[r]
	}
	n := float64(len(rows))
	lambda := b.p.Lambda
	parentScore := total * total / (n + lambda)

	bestGain := 1e-12
	bestFeature, bestThreshold, found := -1, 0.0, false

	for f := 0; f < dim; f++ {
		vals := b.vals[:0]
		for _, r := range rows {
			vals = append(vals, fv{b.x[r][f], b.target[r]})
		}
		slices.SortFunc(vals, cmpFV)
		var leftSum float64
		for i := 0; i < len(vals)-1; i++ {
			leftSum += vals[i].t
			if vals[i].v == vals[i+1].v {
				continue // cannot split between equal values
			}
			nl := float64(i + 1)
			nr := n - nl
			rightSum := total - leftSum
			gain := leftSum*leftSum/(nl+lambda) + rightSum*rightSum/(nr+lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (vals[i].v + vals[i+1].v) / 2
				found = true
			}
		}
	}
	return bestFeature, bestThreshold, found
}

// Predict returns the model's estimate for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	out := m.base
	for i := range m.trees {
		out += m.params.LearningRate * m.trees[i].predict(x)
	}
	return out
}

// PredictBatch returns estimates for many feature vectors.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// MSE returns the mean squared error of the model on a dataset.
func (m *Model) MSE(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for i, row := range x {
		d := m.Predict(row) - y[i]
		sum += d * d
	}
	return sum / float64(len(x))
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }
