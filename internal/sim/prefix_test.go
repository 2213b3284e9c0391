package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleRawWeights is the weight-vector build the one-pass prefix
// replaced, kept verbatim as the reference: it fills w (len Iters) with
// the unnormalised pattern and returns the factor that normalises it to
// mean 1.
func oracleRawWeights(lm *LoopModel, w []float64) (inv float64) {
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

// oraclePrefix is the fill/sum/prefix build the one-pass prefix replaced.
func oraclePrefix(lm *LoopModel) []float64 {
	pre := make([]float64, lm.Iters+1)
	inv := oracleRawWeights(lm, pre[1:])
	for i := 1; i < len(pre); i++ {
		pre[i] = pre[i-1] + float64(pre[i]*inv)
	}
	return pre
}

// oracleWeights is the normalised weight vector the replaced build gave.
func oracleWeights(lm *LoopModel) []float64 {
	w := make([]float64, lm.Iters)
	inv := oracleRawWeights(lm, w)
	for i := range w {
		w[i] *= inv
	}
	return w
}

// TestPrefixMatchesOracle requires the one-pass build to reproduce the
// replaced fill/sum/prefix build exactly — ==, not a tolerance — for every
// imbalance kind, over iteration counts from 1 to LULESH-60's 216,000
// (including counts that are not a multiple of the sawtooth period),
// block counts that give a period of one iteration, and spreads that hit
// the 0.05 weight floor. Weights must match the replaced vector too.
func TestPrefixMatchesOracle(t *testing.T) {
	iters := []int{1, 5, 17, 10404, 26244, 91125, 216000}
	blocks := []int{0, 1, 3, 4, 8, 16, 100}
	params := []float64{0.3, 1.45, 2.5}
	if testing.Short() {
		iters = iters[:5]
	}
	cases := 0
	for _, kind := range []ImbalanceKind{Uniform, Ramp, Blocks, Random, Sawtooth} {
		kb, kp := blocks, params
		switch kind {
		case Uniform:
			kb, kp = blocks[:1], params[:1]
		case Ramp, Random: // neither reads Blocks
			kb = blocks[:1]
		}
		for _, n := range iters {
			for _, nb := range kb {
				for _, p := range kp {
					im := Imbalance{Kind: kind, Param: p, Blocks: nb, Seed: int64(n + nb)}
					name := fmt.Sprintf("%v/n=%d/blocks=%d/param=%g", kind, n, nb, p)
					want := &LoopModel{Name: "oracle", Iters: n, Imbalance: im}
					got := &LoopModel{Name: "one-pass", Iters: n, Imbalance: im}
					got.materializePrefix()
					if !sameFloats(got.prefix, oraclePrefix(want)) {
						t.Errorf("%s: prefix differs from the oracle", name)
					}
					if !sameFloats(got.Weights(), oracleWeights(want)) {
						t.Errorf("%s: Weights differs from the oracle", name)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// sameFloats reports whether a and b hold the same values bit for bit
// (NaN never appears in a weight prefix).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //arcslint:ignore floatcmp the one-pass build must be bit-identical
			return false
		}
	}
	return true
}

// TestBuildPrefixSkipsUniform: a uniform model's WeightSum is closed
// form, so building its prefix would only spend memory.
func TestBuildPrefixSkipsUniform(t *testing.T) {
	lm := &LoopModel{Name: "u", Iters: 1000, Imbalance: Imbalance{Kind: Uniform}}
	lm.BuildPrefix()
	if lm.prefix != nil {
		t.Fatalf("BuildPrefix built a %d-entry prefix for a uniform loop", len(lm.prefix))
	}
	saw := &LoopModel{Name: "s", Iters: 1000, Imbalance: Imbalance{Kind: Sawtooth, Param: 0.5, Blocks: 4}}
	saw.BuildPrefix()
	if len(saw.prefix) != 1001 {
		t.Fatalf("BuildPrefix built a %d-entry prefix, want 1001", len(saw.prefix))
	}
}
