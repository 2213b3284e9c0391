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
// prefix sums of its weights are built once, and each Machine keeps the
// result of its last probe of the model to reuse for an identical probe.
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

// buildPrefix materialises the prefix sums of the per-iteration weights.
// Weights are normalised to mean exactly 1 so that total work is
// independent of the imbalance pattern. The build is guarded by a sync.Once
// because LoopModels are shared read-mostly across harness goroutines; the
// weights themselves are not kept, since the executor reads only the sums.
func (lm *LoopModel) buildPrefix() {
	lm.prefixOnce.Do(lm.materializePrefix)
}

// materializePrefix writes the raw weights into prefix[1:], then turns them
// in place into sums of the normalised weights. The conversion rounds each
// normalised weight before the add, as Weights does, so no platform fuses
// the two into one multiply-add.
func (lm *LoopModel) materializePrefix() {
	pre := make([]float64, lm.Iters+1)
	inv := lm.rawWeights(pre[1:])
	for i := 1; i < len(pre); i++ {
		pre[i] = pre[i-1] + float64(pre[i]*inv)
	}
	lm.prefix = pre
}

// rawWeights fills w (len Iters) with the unnormalised weight pattern and
// returns the factor that normalises it to mean 1.
func (lm *LoopModel) rawWeights(w []float64) (inv float64) {
	n := len(w)
	im := lm.Imbalance
	switch im.Kind {
	case Uniform:
		for i := range w {
			w[i] = 1
		}
	case Ramp:
		spread := im.Param
		for i := range w {
			x := 0.0
			if n > 1 {
				x = float64(i)/float64(n-1) - 0.5
			}
			w[i] = 1 + spread*x
			if w[i] < 0.05 {
				w[i] = 0.05
			}
		}
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
	case Random:
		rng := rand.New(rand.NewSource(im.Seed))
		sigma := im.Param
		for i := range w {
			w[i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
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
		for i := range w {
			phase := float64(i%per) / float64(per)
			w[i] = 1 + spread*(phase-0.5)
			if w[i] < 0.05 {
				w[i] = 0.05
			}
		}
	default:
		for i := range w {
			w[i] = 1
		}
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	mean := sum / float64(n)
	return 1 / mean
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
	lm.buildPrefix()
	return lm.prefix[hi] - lm.prefix[lo]
}

// Weights returns a fresh copy of the normalised weight vector, computed
// on each call.
func (lm *LoopModel) Weights() []float64 {
	w := make([]float64, lm.Iters)
	inv := lm.rawWeights(w)
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
