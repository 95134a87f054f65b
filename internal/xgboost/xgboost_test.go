package xgboost

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func dataset(n int, seed int64, f func([]float64) float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = f(x[i])
	}
	return x, y
}

func TestFitsConstant(t *testing.T) {
	x, y := dataset(50, 1, func([]float64) float64 { return 7 })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(x, y); mse > 1e-3 {
		t.Fatalf("constant target MSE = %v", mse)
	}
}

func TestFitsLinear(t *testing.T) {
	x, y := dataset(300, 2, func(v []float64) float64 { return 3*v[0] - 2*v[1] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: predicting the mean.
	var mean, varY float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(y))
	if mse := m.MSE(x, y); mse > varY/10 {
		t.Fatalf("linear fit MSE %v not ≪ variance %v", mse, varY)
	}
}

func TestFitsInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("100 boosting rounds on 500 samples takes ~0.1s")
	}
	// Tuning cost surfaces are highly non-linear; trees must capture x0·x1.
	x, y := dataset(500, 3, func(v []float64) float64 { return v[0] * v[1] })
	p := DefaultParams()
	p.Rounds = 100
	p.MaxDepth = 5
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	var mean, varY float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(y))
	if mse := m.MSE(x, y); mse > varY/5 {
		t.Fatalf("interaction fit MSE %v not ≪ variance %v", mse, varY)
	}
}

func TestMoreRoundsReduceTrainError(t *testing.T) {
	x, y := dataset(200, 4, func(v []float64) float64 { return math.Sin(v[0]) * v[1] })
	short := DefaultParams()
	short.Rounds = 5
	long := DefaultParams()
	long.Rounds = 80
	m1, err := Train(x, y, short)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, long)
	if err != nil {
		t.Fatal(err)
	}
	if m2.MSE(x, y) >= m1.MSE(x, y) {
		t.Fatalf("80 rounds (%v) must beat 5 rounds (%v) on train MSE", m2.MSE(x, y), m1.MSE(x, y))
	}
}

func TestGeneralisesToHeldOut(t *testing.T) {
	x, y := dataset(400, 5, func(v []float64) float64 { return 2*v[0] + v[1]*v[1] })
	xTest, yTest := dataset(100, 6, func(v []float64) float64 { return 2*v[0] + v[1]*v[1] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var mean, varY float64
	for _, v := range yTest {
		mean += v
	}
	mean /= float64(len(yTest))
	for _, v := range yTest {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(yTest))
	if mse := m.MSE(xTest, yTest); mse > varY/2 {
		t.Fatalf("held-out MSE %v not better than mean predictor %v", mse, varY)
	}
}

func TestPredictBatch(t *testing.T) {
	x, y := dataset(50, 7, func(v []float64) float64 { return v[2] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(x[:5])
	for i, row := range x[:5] {
		if batch[i] != m.Predict(row) {
			t.Fatal("batch and single predictions must agree")
		}
	}
}

func TestSubsampling(t *testing.T) {
	x, y := dataset(200, 8, func(v []float64) float64 { return v[0] })
	p := DefaultParams()
	p.SubsampleRow = 0.5
	p.Seed = 42
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != p.Rounds {
		t.Fatalf("trees = %d, want %d", m.NumTrees(), p.Rounds)
	}
	if mse := m.MSE(x, y); mse > 2 {
		t.Fatalf("subsampled fit too poor: MSE %v", mse)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	x, y := dataset(100, 9, func(v []float64) float64 { return v[0] + v[1] })
	p := DefaultParams()
	p.SubsampleRow = 0.7
	p.Seed = 5
	m1, _ := Train(x, y, p)
	m2, _ := Train(x, y, p)
	for i := range x {
		if m1.Predict(x[i]) != m2.Predict(x[i]) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultParams()); err == nil {
		t.Fatal("empty dataset must be rejected")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("ragged features must be rejected")
	}
	p := DefaultParams()
	p.Rounds = 0
	if _, err := Train([][]float64{{1}, {2}}, []float64{1, 2}, p); err == nil {
		t.Fatal("zero rounds must be rejected")
	}
}

func TestSingleFeatureStep(t *testing.T) {
	// A step function needs only one split.
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{0, 0, 0, 5, 5, 5}
	p := DefaultParams()
	p.Rounds = 30
	p.Lambda = 0.1
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{2.5})-0) > 0.5 {
		t.Fatalf("left side predicts %v", m.Predict([]float64{2.5}))
	}
	if math.Abs(m.Predict([]float64{11})-5) > 0.5 {
		t.Fatalf("right side predicts %v", m.Predict([]float64{11}))
	}
}

// referenceTrain is the original, allocation-heavy trainer: per-node row
// slices built with append, a fresh sort.Slice scratch per split search and
// a full tree walk per row to update the running prediction. The fast
// trainer must reproduce its models bit for bit.
func referenceTrain(x [][]float64, y []float64, p Params) *Model {
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
		t := referenceBuildTree(x, residual, rows, p)
		m.trees = append(m.trees, t)
		for i := range pred {
			pred[i] += p.LearningRate * t.predict(x[i])
		}
	}
	return m
}

func referenceBuildTree(x [][]float64, target []float64, rows []int, p Params) tree {
	t := tree{}
	var grow func(rows []int, depth int) int
	grow = func(rows []int, depth int) int {
		idx := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: -1, left: -1, right: -1})
		var sum float64
		for _, r := range rows {
			sum += target[r]
		}
		t.nodes[idx].value = sum / (float64(len(rows)) + p.Lambda)
		if depth >= p.MaxDepth || len(rows) < p.MinSamples {
			return idx
		}
		feature, threshold, ok := referenceBestSplit(x, target, rows, p)
		if !ok {
			return idx
		}
		var left, right []int
		for _, r := range rows {
			if x[r][feature] <= threshold {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return idx
		}
		t.nodes[idx].feature = feature
		t.nodes[idx].threshold = threshold
		t.nodes[idx].left = grow(left, depth+1)
		t.nodes[idx].right = grow(right, depth+1)
		return idx
	}
	grow(rows, 0)
	return t
}

func referenceBestSplit(x [][]float64, target []float64, rows []int, p Params) (int, float64, bool) {
	dim := len(x[0])
	var total float64
	for _, r := range rows {
		total += target[r]
	}
	n := float64(len(rows))
	parentScore := total * total / (n + p.Lambda)

	bestGain := 1e-12
	bestFeature, bestThreshold, found := -1, 0.0, false

	type fv struct{ v, t float64 }
	vals := make([]fv, 0, len(rows))
	for f := 0; f < dim; f++ {
		vals = vals[:0]
		for _, r := range rows {
			vals = append(vals, fv{x[r][f], target[r]})
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		var leftSum float64
		for i := 0; i < len(vals)-1; i++ {
			leftSum += vals[i].t
			if vals[i].v == vals[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			rightSum := total - leftSum
			gain := leftSum*leftSum/(nl+p.Lambda) + rightSum*rightSum/(nr+p.Lambda) - parentScore
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

// knobDataset draws tie-heavy integer features shaped like tuner knob
// indices (a handful of distinct values per feature) and a non-linear
// target, the regime the XGB tuner trains in. The last feature mirrors the
// first, as dependent knobs do: both split the rows identically, so which
// one wins is decided by the rounding of the split sums alone, and any
// change to their summation order shows.
func knobDataset(rows, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	levels := make([]int, dim)
	for f := range levels {
		levels[f] = 2 + rng.Intn(7)
	}
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = make([]float64, dim)
		prod := 1.0
		for f := 0; f < dim-1; f++ {
			x[i][f] = float64(rng.Intn(levels[f]))
			prod *= x[i][f] + 1
		}
		x[i][dim-1] = float64(levels[0]-1) - x[i][0]
		y[i] = math.Floor(1e4/prod) + float64(rng.Intn(3))/3
	}
	return x, y
}

// probeRows draws feature vectors off the training data, half integral and
// half not, so predictions also differ between trees whose splits agree
// on every training row.
func probeRows(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for f := range x[i] {
			v := rng.Float64()*20 - 10
			if rng.Intn(2) == 0 {
				v = math.Round(v)
			}
			x[i][f] = v
		}
	}
	return x
}

// continuousDataset draws random real features with a smooth target.
func continuousDataset(rows, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = make([]float64, dim)
		for f := range x[i] {
			x[i][f] = rng.NormFloat64() * 5
		}
		y[i] = math.Sin(x[i][0])*x[i][dim-1] + rng.Float64()
	}
	return x, y
}

// TestTrainMatchesReference checks that Train predicts bit-identically to
// the reference trainer on knob-like, continuous and row-subsampled data
// across seeds, depths and round counts.
func TestTrainMatchesReference(t *testing.T) {
	type tc struct {
		name      string
		x         [][]float64
		y         []float64
		subsample float64
	}
	var cases []tc
	for s := int64(1); s <= 3; s++ {
		for _, shape := range [][2]int{{10, 3}, {37, 5}, {150, 8}, {400, 6}} {
			x, y := knobDataset(shape[0], shape[1], s*100+int64(shape[0]))
			cases = append(cases, tc{"knob", x, y, 1})
			cases = append(cases, tc{"knob/subsample", x, y, 0.7})
		}
		x, y := continuousDataset(120+40*int(s), 4, s)
		cases = append(cases, tc{"continuous", x, y, 0})
		cases = append(cases, tc{"continuous/subsample", x, y, 0.7})
	}
	for i, c := range cases {
		rows := append(append([][]float64{}, c.x...), probeRows(50, len(c.x[0]), int64(i))...)
		for _, depth := range []int{1, 3, 6} {
			for _, rounds := range []int{1, 7, 30} {
				p := DefaultParams()
				p.MaxDepth, p.Rounds, p.SubsampleRow, p.Seed = depth, rounds, c.subsample, int64(i)
				got, err := Train(c.x, c.y, p)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceTrain(c.x, c.y, p)
				for r, row := range rows {
					g, w := got.Predict(row), want.Predict(row)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("case %d (%s, %d rows) depth %d rounds %d: row %d predicts %v, reference %v",
							i, c.name, len(c.x), depth, rounds, r, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkTrain trains the XGB tuner's cost model on a tuner-sized
// dataset: 200 measured configurations of 8 integer knob indices.
func BenchmarkTrain(b *testing.B) {
	x, y := knobDataset(200, 8, 1)
	p := DefaultParams()
	p.Rounds, p.MaxDepth = 30, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, p); err != nil {
			b.Fatal(err)
		}
	}
}
