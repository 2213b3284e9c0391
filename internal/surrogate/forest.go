// Package surrogate implements a small, deterministic regression forest
// fit online over search-probe results, plus the expected-improvement
// acquisition rule used to pick the next probe. It is the model behind
// harmony's surrogate strategy (ytopt-style Bayesian optimisation over the
// ARCS lattice): instead of blind simplex moves, candidates are scored by
// how much the model expects them to improve on the incumbent best.
//
// Everything is stdlib-only and deterministic: tree construction draws
// from a private PRNG per tree, seeded once per forest, split selection
// breaks ties by (dimension, cut) order, and prediction is a pure
// function of the fitted trees. The same observation sequence always
// yields the same model — the package is under the arcslint determinism
// contract, and batched search sessions replaying it must stay
// byte-identical to serial ones.
package surrogate

import (
	"math"
	"math/rand"
)

// Options tunes a Forest. The zero value selects sensible defaults for
// the tiny sample sizes a tuning search produces (tens of observations).
type Options struct {
	// Trees is the ensemble size; more trees give a smoother uncertainty
	// estimate at linear cost. Default 16.
	Trees int
	// MinLeaf stops splitting nodes at or below this many samples.
	// Default 2.
	MinLeaf int
	// MaxDepth bounds tree depth. Default 8.
	MaxDepth int
	// Seed drives the per-tree bootstrap resampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 16
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	return o
}

// Forest is a bootstrap-aggregated ensemble of regression trees over
// integer-valued feature vectors (lattice index points). Observe adds a
// sample, Fit (re)builds the ensemble, Predict returns the ensemble mean
// and the cross-tree standard deviation as an uncertainty proxy.
type Forest struct {
	opts    Options
	dims    int
	xs      [][]int
	ys      []float64
	trees   []*node
	streams []treeStream // one per tree, seeded by the first Fit
}

// treeStream is one tree's private PRNG, seeded once per Forest, with
// every raw Int31 it has produced. Each Fit draws its bootstrap sample
// from the start of the stream, as a freshly seeded PRNG would: it
// replays the recorded values and extends them only when the sample has
// grown past them, so a refit costs no re-seeding.
type treeStream struct {
	src rand.Source
	raw []int32
}

// treeStreamRoom is how many draws each tree's stream has room for before
// its first reallocation: the sample sizes of a bounded search.
const treeStreamRoom = 64

// int31 returns the stream's p-th Int31, drawing it if it is new.
func (s *treeStream) int31(p int) int32 {
	for p >= len(s.raw) {
		s.raw = append(s.raw, int32(s.src.Int63()>>32)) // rand.(*Rand).Int31
	}
	return s.raw[p]
}

// intn replays rand.(*Rand).Intn(n) for 0 < n < 2^31 from the p-th Int31
// on: a power of two masks one value; any other n skips the values past
// the last whole multiple of n below 2^31 and reduces the first one kept
// mod n. It returns the result and the position of the next unread value.
func (s *treeStream) intn(n, p int) (int, int) {
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(s.int31(p) & (n32 - 1)), p + 1
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
	v := s.int31(p)
	p++
	for v > max {
		v = s.int31(p)
		p++
	}
	return int(v % n32), p
}

// node is one regression-tree node: either a leaf carrying the mean of
// its samples, or a split sending x[dim] <= cut left.
type node struct {
	dim, cut    int
	left, right *node
	leaf        bool
	mean        float64
}

// NewForest creates an empty forest over dims-dimensional points.
func NewForest(dims int, opts Options) *Forest {
	return &Forest{opts: opts.withDefaults(), dims: dims}
}

// Len returns the number of observations.
func (f *Forest) Len() int { return len(f.xs) }

// Observe records one (point, value) sample. The point is copied. Fit
// must be called before predictions reflect it.
func (f *Forest) Observe(x []int, y float64) {
	cp := make([]int, len(x))
	copy(cp, x)
	f.xs = append(f.xs, cp)
	f.ys = append(f.ys, y)
}

// Fit rebuilds the ensemble from the current observations. It is a pure
// function of (observations, options): refitting the same data yields
// byte-identical trees.
func (f *Forest) Fit() {
	n := len(f.xs)
	f.trees = f.trees[:0]
	if n == 0 {
		return
	}
	if f.streams == nil {
		f.streams = make([]treeStream, f.opts.Trees)
		room := make([]int32, treeStreamRoom*len(f.streams))
		for t := range f.streams {
			// Private deterministic stream per tree; the odd multiplier
			// keeps neighbouring tree seeds decorrelated.
			f.streams[t].src = rand.NewSource(f.opts.Seed + int64(t)*0x9E3779B1 + 1)
			f.streams[t].raw = room[t*treeStreamRoom : t*treeStreamRoom : (t+1)*treeStreamRoom]
		}
	}
	idx := make([]int, n)
	for t := range f.streams {
		for i, p := 0, 0; i < n; i++ {
			idx[i], p = f.streams[t].intn(n, p)
		}
		f.trees = append(f.trees, f.build(idx, 0))
	}
}

// build grows one tree over the given sample indices.
func (f *Forest) build(idx []int, depth int) *node {
	sum, sumsq := 0.0, 0.0
	for _, i := range idx {
		sum += f.ys[i]
		sumsq += f.ys[i] * f.ys[i]
	}
	n := float64(len(idx))
	mean := sum / n
	sse := sumsq - sum*sum/n
	if len(idx) <= f.opts.MinLeaf || depth >= f.opts.MaxDepth || sse <= 0 {
		return &node{leaf: true, mean: mean}
	}
	bestDim, bestCut, bestScore, found := 0, 0, sse, false
	for d := 0; d < f.dims; d++ {
		dim, cut, score, ok := f.bestSplit(idx, d)
		// Strict improvement with first-wins ties: dimension order (then
		// cut order inside bestSplit) is the deterministic tie-break.
		if ok && score < bestScore {
			bestDim, bestCut, bestScore, found = dim, cut, score, true
		}
	}
	if !found {
		return &node{leaf: true, mean: mean}
	}
	var left, right []int
	for _, i := range idx {
		if f.xs[i][bestDim] <= bestCut {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &node{leaf: true, mean: mean}
	}
	return &node{
		dim: bestDim, cut: bestCut,
		left:  f.build(left, depth+1),
		right: f.build(right, depth+1),
	}
}

// bestSplit scans dimension d for the cut minimising the post-split SSE.
// Feature values are small lattice indices, so samples are bucketed by
// value and cuts are evaluated in ascending value order (deterministic).
func (f *Forest) bestSplit(idx []int, d int) (dim, cut int, score float64, ok bool) {
	maxV := 0
	for _, i := range idx {
		if v := f.xs[i][d]; v > maxV {
			maxV = v
		}
	}
	sums := make([]float64, maxV+1)
	sqs := make([]float64, maxV+1)
	cnt := make([]int, maxV+1)
	for _, i := range idx {
		v := f.xs[i][d]
		sums[v] += f.ys[i]
		sqs[v] += f.ys[i] * f.ys[i]
		cnt[v]++
	}
	total, totalSq, n := 0.0, 0.0, 0
	for v := range sums {
		total += sums[v]
		totalSq += sqs[v]
		n += cnt[v]
	}
	lSum, lSq := 0.0, 0.0
	lN := 0
	best := math.Inf(1)
	for v := 0; v < maxV; v++ { // cut at v: left is x<=v, so v=maxV is no split
		lSum += sums[v]
		lSq += sqs[v]
		lN += cnt[v]
		if lN == 0 || lN == n {
			continue
		}
		rSum, rSq := total-lSum, totalSq-lSq
		rN := n - lN
		sse := (lSq - lSum*lSum/float64(lN)) + (rSq - rSum*rSum/float64(rN))
		if sse < best {
			best, cut, ok = sse, v, true
		}
	}
	return d, cut, best, ok
}

// Predict returns the ensemble-mean prediction for x and the cross-tree
// standard deviation (the model's uncertainty proxy). ok=false before the
// first Fit over a non-empty sample.
func (f *Forest) Predict(x []int) (mean, std float64, ok bool) {
	if len(f.trees) == 0 {
		return 0, 0, false
	}
	sum, sumsq := 0.0, 0.0
	for _, t := range f.trees {
		v := t.predict(x)
		sum += v
		sumsq += v * v
	}
	n := float64(len(f.trees))
	mean = sum / n
	varc := sumsq/n - mean*mean
	if varc < 0 { // guard tiny negative from cancellation
		varc = 0
	}
	return mean, math.Sqrt(varc), true
}

func (nd *node) predict(x []int) float64 {
	for !nd.leaf {
		if x[nd.dim] <= nd.cut {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.mean
}

// ExpectedImprovement scores a candidate under the standard EI acquisition
// rule for minimisation: the expected amount by which a Gaussian with the
// given mean and std undercuts the incumbent best. A zero-std candidate
// scores its deterministic improvement (if any). Lower perf is better
// everywhere in ARCS, so callers maximise this.
func ExpectedImprovement(mean, std, best float64) float64 {
	if std <= 0 {
		if mean < best {
			return best - mean
		}
		return 0
	}
	z := (best - mean) / std
	return (best-mean)*normCDF(z) + std*normPDF(z)
}

func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
