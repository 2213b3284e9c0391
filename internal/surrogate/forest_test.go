package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// synth is a deterministic non-linear target over a small 3-d lattice.
func synth(x []int) float64 {
	return float64((x[0]-4)*(x[0]-4)) + 2*float64((x[1]-1)*(x[1]-1)) +
		0.5*float64((x[2]-5)*(x[2]-5)) + 3*math.Sin(float64(x[0]+x[2]))
}

func gridObserve(f *Forest, stride int) int {
	n := 0
	for a := 0; a < 7; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 9; c++ {
				if (a*36+b*9+c)%stride == 0 {
					f.Observe([]int{a, b, c}, synth([]int{a, b, c}))
					n++
				}
			}
		}
	}
	return n
}

func TestForestFitsSignal(t *testing.T) {
	f := NewForest(3, Options{Seed: 7})
	gridObserve(f, 3) // 84 samples
	f.Fit()
	// The fit must track the signal far better than the constant-mean
	// baseline on the training lattice.
	var sse, sseMean, sum float64
	var n int
	for a := 0; a < 7; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 9; c++ {
				sum += synth([]int{a, b, c})
				n++
			}
		}
	}
	mean := sum / float64(n)
	for a := 0; a < 7; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 9; c++ {
				x := []int{a, b, c}
				y := synth(x)
				pred, _, ok := f.Predict(x)
				if !ok {
					t.Fatal("Predict not ok after Fit")
				}
				sse += (pred - y) * (pred - y)
				sseMean += (mean - y) * (mean - y)
			}
		}
	}
	if sse > 0.3*sseMean {
		t.Errorf("forest SSE %.2f vs mean-baseline SSE %.2f: model did not learn", sse, sseMean)
	}
}

func TestForestDeterministic(t *testing.T) {
	build := func() *Forest {
		f := NewForest(3, Options{Seed: 99})
		gridObserve(f, 5)
		f.Fit()
		return f
	}
	f1, f2 := build(), build()
	for a := 0; a < 7; a++ {
		for c := 0; c < 9; c++ {
			x := []int{a, a % 4, c}
			m1, s1, _ := f1.Predict(x)
			m2, s2, _ := f2.Predict(x)
			if m1 != m2 || s1 != s2 {
				t.Fatalf("prediction at %v differs across identical fits: (%g,%g) vs (%g,%g)",
					x, m1, s1, m2, s2)
			}
		}
	}
	// Refitting the same forest must also be stable.
	f1.Fit()
	m1, s1, _ := f1.Predict([]int{3, 2, 4})
	m2, s2, _ := f2.Predict([]int{3, 2, 4})
	if m1 != m2 || s1 != s2 {
		t.Errorf("refit changed predictions: (%g,%g) vs (%g,%g)", m1, s1, m2, s2)
	}
}

func TestForestObserveCopiesPoint(t *testing.T) {
	f := NewForest(2, Options{Seed: 1})
	x := []int{1, 2}
	f.Observe(x, 5)
	x[0] = 99
	f.Observe([]int{1, 3}, 7)
	f.Fit()
	m, _, ok := f.Predict([]int{1, 2})
	if !ok || math.IsNaN(m) {
		t.Fatalf("Predict = %v, %v", m, ok)
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestPredictBeforeFit(t *testing.T) {
	f := NewForest(3, Options{})
	if _, _, ok := f.Predict([]int{0, 0, 0}); ok {
		t.Error("Predict ok before any Fit")
	}
	f.Observe([]int{1, 1, 1}, 2)
	f.Fit()
	m, s, ok := f.Predict([]int{5, 0, 3})
	if !ok || m != 2 || s != 0 {
		t.Errorf("single-sample fit: mean=%g std=%g ok=%v, want 2, 0, true", m, s, ok)
	}
}

func TestExpectedImprovement(t *testing.T) {
	if ei := ExpectedImprovement(5, 0, 4); ei != 0 {
		t.Errorf("no-uncertainty worse candidate EI = %g, want 0", ei)
	}
	if ei := ExpectedImprovement(3, 0, 4); ei != 1 {
		t.Errorf("deterministic improvement EI = %g, want 1", ei)
	}
	// Symmetric case: mean equals the incumbent, EI = std/sqrt(2*pi).
	got := ExpectedImprovement(4, 1, 4)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EI at z=0: %g, want %g", got, want)
	}
	// More uncertainty means more expected improvement, monotonically.
	prev := 0.0
	for std := 0.5; std < 8; std += 0.5 {
		ei := ExpectedImprovement(5, std, 4)
		if ei <= prev {
			t.Fatalf("EI not increasing in std: %g at std=%g (prev %g)", ei, std, prev)
		}
		prev = ei
	}
	// EI is always non-negative.
	for mean := -3.0; mean < 10; mean += 0.7 {
		if ei := ExpectedImprovement(mean, 2, 4); ei < 0 {
			t.Fatalf("negative EI %g at mean %g", ei, mean)
		}
	}
}

// TestTreeStreamReplaysIntn: the cached-draw replay must give exactly the
// values rand.(*Rand).Intn gives a freshly seeded stream, for every sample
// size a refit meets — powers of two (the masked path) and the others
// (the rejection path) alike — with one stream serving every n in turn,
// as one forest's refits do.
func TestTreeStreamReplaysIntn(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s := treeStream{src: rand.NewSource(seed)}
		for n := 1; n <= 300; n++ {
			ref := rand.New(rand.NewSource(seed))
			for i, p := 0, 0; i < n; i++ {
				var got int
				got, p = s.intn(n, p)
				if want := ref.Intn(n); got != want {
					t.Fatalf("seed %d n %d draw %d: replay %d, Intn %d", seed, n, i, got, want)
				}
			}
		}
		// Sizes near 2^31 reject about half the raw values, so the
		// rejection loop runs, which it almost never does below 300.
		for _, n := range []int{1<<30 + 1, 3 << 29, 1<<31 - 1} {
			ref := rand.New(rand.NewSource(seed))
			for i, p := 0, 0; i < 64; i++ {
				var got int
				got, p = s.intn(n, p)
				if want := ref.Intn(n); got != want {
					t.Fatalf("seed %d n %d draw %d: replay %d, Intn %d", seed, n, i, got, want)
				}
			}
		}
	}
}

// TestRefitMatchesFreshFit: a forest refit after each further Observe —
// replaying its cached draws — must predict bit for bit what a fresh
// forest fitted once on the same observations predicts, mean and std, at
// every lattice point.
func TestRefitMatchesFreshFit(t *testing.T) {
	refit := NewForest(3, Options{Seed: 11})
	var xs [][]int
	for a := 0; a < 7; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 9; c++ {
				if (a*36+b*9+c)%5 == 0 {
					xs = append(xs, []int{a, b, c})
				}
			}
		}
	}
	for k, x := range xs {
		refit.Observe(x, synth(x))
		refit.Fit()
		if k%4 != 3 && k != len(xs)-1 {
			continue
		}
		fresh := NewForest(3, Options{Seed: 11})
		for _, x := range xs[:k+1] {
			fresh.Observe(x, synth(x))
		}
		fresh.Fit()
		for a := 0; a < 7; a++ {
			for b := 0; b < 4; b++ {
				for c := 0; c < 9; c++ {
					p := []int{a, b, c}
					m1, s1, _ := refit.Predict(p)
					m2, s2, _ := fresh.Predict(p)
					if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(s1) != math.Float64bits(s2) {
						t.Fatalf("after %d observations at %v: refit (%v, %v), fresh fit (%v, %v)", k+1, p, m1, s1, m2, s2)
					}
				}
			}
		}
	}
}
