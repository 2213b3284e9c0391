// Package surrogate implements a small, deterministic regression forest
// fit online over search-probe results, plus the expected-improvement
// acquisition rule used to pick the next probe. It is the model behind
// harmony's surrogate strategy (ytopt-style Bayesian optimisation over the
// ARCS lattice): instead of blind simplex moves, candidates are scored by
// how much the model expects them to improve on the incumbent best.
//
// Everything is stdlib-only and deterministic: tree construction draws
// from a private math/rand stream per tree, seeded once per forest,
// split selection breaks ties by (dimension, cut) order, and prediction
// is a pure function of the fitted trees. The same observation sequence
// always yields the same model — the package is under the arcslint
// determinism contract, so a search session that replays an observation
// sequence proposes the same candidates every time.
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
	streams []Stream // one per tree, seeded by the first Fit
	maxV    int      // the largest observed lattice coordinate
}

// Stream is a seeded math/rand stream, with every raw Int31 it has
// produced. Each tree of a Forest has one: each Fit draws its bootstrap
// sample from the start of the stream, as a freshly seeded source would,
// replaying the recorded values and extending them only when the sample
// has grown past them, so a refit costs no re-seeding. Intn reads it
// once, front to back, as rand.New(rand.NewSource(seed)).Intn would.
//
// The stream draws exactly what rand.NewSource(seed) would, without
// building its 607-word register. rngSource.Seed fills word i from three
// steps of the Lehmer LCG x ← 48271·x mod (2³¹−1), taken after 20+3i
// steps from the seed, XORed with rngCooked[i]; draw d (0-based) returns
// word 333−d plus word 606−d and overwrites word 333−d. Before draw 273
// the tap never reaches an overwritten word, so each draw adds two fresh
// words: the stream keeps the LCG state before each of them and steps
// both back three LCG steps per draw. Draws 273 on, which only a sample of
// some 270 points or more reaches, come from a real source advanced past
// the first 273 draws.
type Stream struct {
	seed      int64  // as given, for the fallback source
	feed, tap uint64 // LCG states just before the next draw's two words
	src       rand.Source
	raw       []int32
	pos       int // the value the next Intn reads first
}

// math/rand's generator (rng.go) and the LCG that seeds it.
const (
	rngLen      = 607
	rngTap      = 273       // draws before the tap meets an overwritten word
	lcgMod      = 1<<31 - 1 // a Mersenne prime
	lcgMul      = 48271
	lcgInv3     = 856800417 // lcgMul⁻³ mod lcgMod: back one register word
	lcgZeroSeed = 89482311  // what Seed uses for a seed ≡ 0
)

// feedStart and tapStart are the LCG's multipliers, from the seed, to
// the states just before the register words the first draw adds.
var (
	feedStart = lcgPow(20 + 3*(rngLen-rngTap-1))
	tapStart  = lcgPow(20 + 3*(rngLen-1))
)

// NewStream returns the stream rand.NewSource(seed) draws, recording its
// values in raw's spare capacity first (raw may be nil).
func NewStream(seed int64, raw []int32) Stream {
	x := seed % lcgMod // rngSource.Seed's normalisation
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = lcgZeroSeed
	}
	return Stream{
		seed: seed,
		feed: mulmod(uint64(x), feedStart),
		tap:  mulmod(uint64(x), tapStart),
		raw:  raw,
	}
}

// treeStreamRoom is how many draws each tree's stream has room for before
// its first reallocation: the sample sizes of a bounded search.
const treeStreamRoom = 64

// Intn returns what the next rand.(*Rand).Intn(n) of a source seeded
// alike would, for 0 < n < 2³¹; it panics on any other n.
func (s *Stream) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("surrogate: Stream.Intn wants 0 < n < 2^31")
	}
	v, p := s.intn(n, s.pos)
	s.pos = p
	return v
}

// int31 returns the stream's p-th Int31, drawing it if it is new.
func (s *Stream) int31(p int) int32 {
	for p >= len(s.raw) {
		s.raw = append(s.raw, s.next())
	}
	return s.raw[p]
}

// next draws the Int31 after the recorded ones: rand.(*Rand).Int31, the
// top 31 bits of the source's 63-bit Int63.
func (s *Stream) next() int32 {
	d := len(s.raw)
	if d < rngTap {
		sum := registerWord(s.feed, rngLen-rngTap-1-d) + registerWord(s.tap, rngLen-1-d)
		s.feed = mulmod(s.feed, lcgInv3)
		s.tap = mulmod(s.tap, lcgInv3)
		return int32((uint64(sum) & (1<<63 - 1)) >> 32)
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed)
		for range rngTap {
			s.src.Int63()
		}
	}
	return int32(s.src.Int63() >> 32)
}

// registerWord is word i of a seeded source's register, given the LCG
// state x just before it: rngSource.Seed's three steps and table XOR.
func registerWord(x uint64, i int) int64 {
	x1 := mulmod(x, lcgMul)
	x2 := mulmod(x1, lcgMul)
	x3 := mulmod(x2, lcgMul)
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1) without dividing:
// 2³¹ ≡ 1, so the product's high bits fold onto its low ones. The fold is
// at most 2·(2³¹−1) and never a multiple of the prime, so one subtraction
// reduces it.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// lcgPow returns lcgMul^e mod 2³¹−1.
func lcgPow(e int) uint64 {
	r, b := uint64(1), uint64(lcgMul)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = mulmod(r, b)
		}
		b = mulmod(b, b)
	}
	return r
}

// intn replays rand.(*Rand).Intn(n) for 0 < n < 2^31 from the p-th Int31
// on: a power of two masks one value; any other n skips the values past
// the last whole multiple of n below 2^31 and reduces the first one kept
// mod n. It returns the result and the position of the next unread value.
func (s *Stream) intn(n, p int) (int, int) {
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
	for _, v := range x {
		f.maxV = max(f.maxV, v)
	}
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
		f.streams = make([]Stream, f.opts.Trees)
		room := make([]int32, treeStreamRoom*len(f.streams))
		for t := range f.streams {
			// Private deterministic stream per tree; the odd multiplier
			// keeps neighbouring tree seeds decorrelated.
			f.streams[t] = NewStream(f.opts.Seed+int64(t)*0x9E3779B1+1,
				room[t*treeStreamRoom:t*treeStreamRoom:(t+1)*treeStreamRoom])
		}
	}
	buckets := make([]bucket, f.maxV+1) // bestSplit's scratch, for every node
	idx := make([]int, n)
	right := make([]int, n) // build's partition scratch, for every node
	for t := range f.streams {
		for i, p := 0, 0; i < n; i++ {
			idx[i], p = f.streams[t].intn(n, p)
		}
		f.trees = append(f.trees, f.build(idx, 0, buckets, right))
	}
}

// bucket sums the samples of one lattice value for bestSplit.
type bucket struct {
	sum, sq float64
	n       int
}

// build grows one tree over the given sample indices, which it reorders
// in place; buckets has room for every lattice value of the observations
// and right for every sample.
func (f *Forest) build(idx []int, depth int, buckets []bucket, right []int) *node {
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
		dim, cut, score, ok := f.bestSplit(idx, d, buckets)
		// Strict improvement with first-wins ties: dimension order (then
		// cut order inside bestSplit) is the deterministic tie-break.
		if ok && score < bestScore {
			bestDim, bestCut, bestScore, found = dim, cut, score, true
		}
	}
	if !found {
		return &node{leaf: true, mean: mean}
	}
	// Stable in-place partition: the left side packs to the front of idx
	// and the right side, staged in right, follows it. Each side keeps its
	// sample order, so the sums below accumulate in the same order.
	nl, nr := 0, 0
	for _, i := range idx {
		if f.xs[i][bestDim] <= bestCut {
			idx[nl] = i
			nl++
		} else {
			right[nr] = i
			nr++
		}
	}
	if nl == 0 || nr == 0 {
		return &node{leaf: true, mean: mean}
	}
	copy(idx[nl:], right[:nr])
	return &node{
		dim: bestDim, cut: bestCut,
		left:  f.build(idx[:nl], depth+1, buckets, right),
		right: f.build(idx[nl:], depth+1, buckets, right),
	}
}

// bestSplit scans dimension d for the cut minimising the post-split SSE.
// Feature values are small lattice indices, so samples are bucketed by
// value (into buckets, zeroed first) and cuts are evaluated in
// ascending value order (deterministic).
func (f *Forest) bestSplit(idx []int, d int, buckets []bucket) (dim, cut int, score float64, ok bool) {
	maxV := 0
	for _, i := range idx {
		maxV = max(maxV, f.xs[i][d])
	}
	b := buckets[:maxV+1]
	clear(b)
	for _, i := range idx {
		v := f.xs[i][d]
		b[v].sum += f.ys[i]
		b[v].sq += f.ys[i] * f.ys[i]
		b[v].n++
	}
	total, totalSq, n := 0.0, 0.0, 0
	for v := range b {
		total += b[v].sum
		totalSq += b[v].sq
		n += b[v].n
	}
	lSum, lSq := 0.0, 0.0
	lN := 0
	best := math.Inf(1)
	for v := 0; v < maxV; v++ { // cut at v: left is x<=v, so v=maxV is no split
		lSum += b[v].sum
		lSq += b[v].sq
		lN += b[v].n
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
