package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ImbalanceKind enumerates the per-iteration cost patterns used to model the
// load-balancing behaviour the paper analyses (§V): well balanced kernels
// have Uniform weights; compute_rhs-style kernels have ramps or heavy
// blocks; irregular mesh work is modelled with seeded log-normal noise.
type ImbalanceKind int

const (
	// Uniform gives every iteration the same cost.
	Uniform ImbalanceKind = iota
	// Ramp grows cost linearly across the iteration space; Param is the
	// relative spread (1.0 means the last iteration costs 3x the first,
	// centred on mean 1).
	Ramp
	// Blocks makes Blocks contiguous stretches Param-times heavier than the
	// rest (boundary regions, refined zones).
	Blocks
	// Random draws log-normal multiplicative noise with sigma Param.
	Random
	// Sawtooth repeats a rising ramp Blocks times (periodic fronts).
	Sawtooth
)

// String implements fmt.Stringer.
func (k ImbalanceKind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case Ramp:
		return "ramp"
	case Blocks:
		return "blocks"
	case Random:
		return "random"
	case Sawtooth:
		return "sawtooth"
	default:
		return fmt.Sprintf("ImbalanceKind(%d)", int(k))
	}
}

// Imbalance specifies the iteration-cost pattern of a loop.
type Imbalance struct {
	Kind   ImbalanceKind
	Param  float64 // spread / factor / sigma, see ImbalanceKind
	Blocks int     // number of heavy blocks or sawtooth periods
	Seed   int64   // PRNG seed for Random (determinism)
}

// CacheSpec describes the memory behaviour of one loop in physical terms.
// The analytic miss-rate model in cache.go turns these into per-level miss
// rates as a function of (threads, chunk, frequency).
type CacheSpec struct {
	AccessesPerIter  float64 // memory references issued per iteration
	BytesPerIter     float64 // distinct bytes streamed per iteration
	StrideElems      int     // access stride in 8-byte elements (1 = unit)
	TemporalWindowKB float64 // per-thread re-reference window
	FootprintMB      float64 // total data touched per region invocation
	BoundaryLines    float64 // cache lines reloaded per chunk boundary
	PassesPerChunk   float64 // data re-traversals inside one chunk (>=1)
	L3Contention     float64 // 0..1 inter-thread L3 competition strength
	MLP              float64 // memory-level parallelism (latency overlap)
}

// normalized returns a copy with defaulted fields filled in so the cache
// model never divides by zero.
func (c CacheSpec) normalized() CacheSpec {
	if c.StrideElems < 1 {
		c.StrideElems = 1
	}
	if c.PassesPerChunk < 1 {
		c.PassesPerChunk = 1
	}
	if c.MLP < 1 {
		c.MLP = 1
	}
	if c.AccessesPerIter < 0 {
		c.AccessesPerIter = 0
	}
	return c
}

// LoopModel is the simulator's description of one OpenMP parallel region:
// an iteration space with compute cost, an imbalance pattern, a memory
// profile, and an optional master-only serial section (which shows up as
// OMP_BARRIER time for the other team members, as in the paper's LULESH
// EvalEOSForElems analysis, Fig. 9).
//
// A LoopModel must not be mutated once a Machine has probed it: the
// prefix sums of its weights are built once, in one write pass over a
// period table or the weights themselves (BuildPrefix builds them ahead
// of the first probe), and each Machine keeps the result of its last
// probe of the model to reuse for an identical probe.
type LoopModel struct {
	Name          string
	Iters         int
	CompNSPerIter float64 // compute nanoseconds per mean-weight iteration at base frequency
	SerialNS      float64 // master-only nanoseconds per region invocation
	Imbalance     Imbalance
	Mem           CacheSpec

	prefixOnce sync.Once // guards the lazy build (models are shared across harness goroutines)
	prefix     []float64 // prefix[i] = sum of the first i normalised weights; len Iters+1
}

// uniform reports whether every iteration carries weight exactly 1, i.e.
// the weight vector is the constant 1 and never needs materialising. The
// executor's closed-form dispatch fast paths key off this: for uniform
// loops WeightSum(lo, hi) is simply hi-lo, saving O(Iters) memory and the
// prefix-sum build per region.
func (lm *LoopModel) uniform() bool {
	switch lm.Imbalance.Kind {
	case Ramp, Blocks, Random, Sawtooth:
		return false
	}
	// Uniform and unknown kinds both produce the constant-1 vector (see
	// rawWeights' default branch).
	return true
}

// Validate reports whether the model is usable.
func (lm *LoopModel) Validate() error {
	if lm.Iters <= 0 {
		return fmt.Errorf("sim: loop %q: non-positive iteration count %d", lm.Name, lm.Iters)
	}
	if lm.CompNSPerIter < 0 || lm.SerialNS < 0 {
		return fmt.Errorf("sim: loop %q: negative cost", lm.Name)
	}
	m := lm.Mem
	if m.AccessesPerIter < 0 || m.BytesPerIter < 0 || m.TemporalWindowKB < 0 ||
		m.FootprintMB < 0 || m.BoundaryLines < 0 {
		return fmt.Errorf("sim: loop %q: negative memory profile field", lm.Name)
	}
	if m.L3Contention < 0 || m.L3Contention > 1 {
		return fmt.Errorf("sim: loop %q: L3Contention %g outside [0, 1]", lm.Name, m.L3Contention)
	}
	return nil
}

// BuildPrefix builds the prefix sums of the per-iteration weights, once:
// the first probe of a non-uniform model builds them otherwise. Weights
// are normalised to mean exactly 1 so that total work is independent of
// the imbalance pattern. The build is guarded by a sync.Once because
// LoopModels are shared read-mostly across harness goroutines; the
// weights themselves are not kept, since the executor reads only the
// sums. A uniform model has no prefix to build.
func (lm *LoopModel) BuildPrefix() {
	if lm.uniform() {
		return
	}
	lm.prefixOnce.Do(lm.materializePrefix)
}

// materializePrefix builds the prefix sums in one write pass. The raw
// weights come as a pattern that tiles the iteration space (see
// rawWeights): a first pass sums it in iteration order, so the normaliser
// has the bits a sum over the filled vector has, and the second writes
// each prefix[i] once. A pattern that is the whole vector lives in
// prefix[1:] itself, and the second pass reads each weight just before it
// overwrites it with its sum. The conversion rounds each normalised weight
// before the add, as Weights does, so no platform fuses the two into one
// multiply-add.
func (lm *LoopModel) materializePrefix() {
	n := lm.Iters
	pre := make([]float64, n+1)
	pat := lm.rawWeights(pre[1:])
	sum := 0.0
	for lo := 0; lo < n; lo += len(pat) {
		for _, w := range pat[:min(len(pat), n-lo)] {
			sum += w
		}
	}
	inv := 1 / (sum / float64(n))
	acc := 0.0
	for lo := 0; lo < n; lo += len(pat) {
		out := pre[lo+1 : lo+1+min(len(pat), n-lo)]
		for i, w := range pat[:len(out)] {
			acc += float64(w * inv)
			out[i] = acc
		}
	}
	lm.prefix = pre
}

// rawWeights returns the unnormalised weight pattern of the loop's Iters
// iterations: weight i is pat[i%len(pat)]. Sawtooth comes back as one
// period table, and w is untouched. The others are filled into w (len
// Iters), which comes back as the pattern: recomputing a Ramp weight
// costs a division, and a Random one a draw from a seeded stream.
func (lm *LoopModel) rawWeights(w []float64) (pat []float64) {
	n := len(w)
	im := lm.Imbalance
	switch im.Kind {
	case Ramp:
		spread := im.Param
		for i := range w {
			x := 0.0
			if n > 1 {
				x = float64(i)/float64(n-1) - 0.5
			}
			w[i] = clampWeight(1 + spread*x)
		}
		return w
	case Blocks:
		nb := im.Blocks
		if nb <= 0 {
			nb = 1
		}
		factor := im.Param
		if factor < 1 {
			factor = 1
		}
		for i := range w {
			w[i] = 1
		}
		blockLen := n / (nb * 4)
		if blockLen < 1 {
			blockLen = 1
		}
		for b := 0; b < nb; b++ {
			start := (b*2 + 1) * n / (nb * 2)
			for j := 0; j < blockLen && start+j < n; j++ {
				w[start+j] = factor
			}
		}
		return w
	case Random:
		rng := rand.New(rand.NewSource(im.Seed))
		sigma := im.Param
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
		return w
	case Sawtooth:
		periods := im.Blocks
		if periods <= 0 {
			periods = 4
		}
		spread := im.Param
		per := n / periods
		if per < 1 {
			per = 1
		}
		pat = make([]float64, per)
		for i := range pat {
			phase := float64(i) / float64(per)
			pat[i] = clampWeight(1 + spread*(phase-0.5))
		}
		return pat
	default: // Uniform and unknown kinds: the constant 1
		for i := range w {
			w[i] = 1
		}
		return w
	}
}

// clampWeight keeps a weight at or above the 0.05 floor of the
// spread-based patterns.
func clampWeight(w float64) float64 {
	if w < 0.05 {
		return 0.05
	}
	return w
}

// WeightSum returns the sum of iteration weights in [lo, hi) in O(1) after
// the first call (prefix sums). The executor uses it to cost chunks. For
// uniform loops the sum is hi-lo by construction and no weight vector is
// ever built (exactly equivalent: uniform weights normalise to 1.0 and the
// prefix sums are exact small integers).
func (lm *LoopModel) WeightSum(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > lm.Iters {
		hi = lm.Iters
	}
	if lo >= hi {
		return 0
	}
	if lm.uniform() {
		return float64(hi - lo)
	}
	lm.BuildPrefix()
	return lm.prefix[hi] - lm.prefix[lo]
}

// Weights returns a fresh copy of the normalised weight vector, computed
// on each call.
func (lm *LoopModel) Weights() []float64 {
	n := lm.Iters
	w := make([]float64, n)
	pat := lm.rawWeights(w)
	for lo := 0; lo < n; lo += len(pat) {
		copy(w[lo:], pat) // a self-copy when the pattern is w
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	inv := 1 / (sum / float64(n))
	for i := range w {
		w[i] *= inv
	}
	return w
}

// TotalWork returns the total compute nanoseconds of one invocation at base
// frequency on one thread (excluding the serial section).
func (lm *LoopModel) TotalWork() float64 {
	return float64(lm.Iters) * lm.CompNSPerIter
}

// ImbalanceRatio returns max weight / mean weight, a scalar measure of how
// imbalanced the loop is (1 = perfectly balanced).
func (lm *LoopModel) ImbalanceRatio() float64 {
	if lm.uniform() {
		return 1
	}
	m := 0.0
	for _, w := range lm.Weights() {
		if w > m {
			m = w
		}
	}
	return m
}
