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
		s := NewStream(seed, nil)
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

// TestStreamIntnMatchesMathRand: Stream.Intn draws what
// rand.New(rand.NewSource(seed)).Intn draws, call after call, for Table
// I's 252-point lattice and other lattice sizes, powers of two among
// them, and for a size that changes every call. Each stream runs past
// draw 273, where it hands over to a real source.
func TestStreamIntnMatchesMathRand(t *testing.T) {
	const calls = 400
	for seed := int64(-3); seed < 40; seed++ {
		for _, n := range []int{252, 1, 2, 7, 64, 150, 504, 4096, 100000, 0} {
			s := NewStream(seed, nil)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < calls; i++ {
				m := n
				if m == 0 { // a size that changes every call
					m = 1 + i%300
				}
				if got, want := s.Intn(m), ref.Intn(m); got != want {
					t.Fatalf("seed %d n %d call %d: Stream.Intn %d, math/rand %d", seed, m, i, got, want)
				}
			}
			if s.src == nil {
				t.Fatalf("seed %d n %d: %d calls never reached the fallback source", seed, n, calls)
			}
		}
	}
}

// TestTreeStreamMatchesMathRand: the closed-form stream must draw exactly
// what rand.NewSource(seed) draws, for seeds at and around every case of
// rngSource.Seed's normalisation (0, the modulus and its multiples, the
// stand-in for a zero seed, the int64 extremes) and for random seeds,
// over the first 700 draws: past draw 273, where it hands over to a real
// source, and past the 607-word register's first wrap.
func TestTreeStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgZeroSeed, -lcgZeroSeed, math.MinInt64, math.MaxInt64}
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / lcgMod} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*lcgMod+d, -k*lcgMod+d)
		}
	}
	gen := rand.New(rand.NewSource(2718))
	for range 300 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	const draws = 700
	for _, seed := range seeds {
		s := NewStream(seed, nil)
		ref := rand.New(rand.NewSource(seed))
		for p := 0; p < draws; p++ {
			if got, want := s.int31(p), ref.Int31(); got != want {
				t.Fatalf("seed %d draw %d: stream %d, math/rand %d", seed, p, got, want)
			}
		}
		if s.src == nil {
			t.Fatalf("seed %d: %d draws never reached the fallback source", seed, draws)
		}
	}
}

// TestTreeStreamAllocs: a stream with room for its draws allocates
// nothing to seed or draw; a math/rand source would allocate its
// 4.9 KB register, an increase BenchmarkForestFit's allocs/op gate is
// too coarse to see.
func TestTreeStreamAllocs(t *testing.T) {
	raw := make([]int32, 0, treeStreamRoom)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		s := NewStream(seed, raw)
		s.int31(treeStreamRoom - 1)
	})
	if allocs != 0 {
		t.Errorf("seeding a stream and drawing %d values: %v allocs, want 0", treeStreamRoom, allocs)
	}
}

// TestLCGInverse: lcgInv3 steps the seeding LCG back by exactly three
// steps, and mulmod reduces like the % operator.
func TestLCGInverse(t *testing.T) {
	if got := lcgInv3 * lcgPow(3) % lcgMod; got != 1 {
		t.Errorf("lcgInv3 · 48271³ ≡ %d (mod 2³¹−1), want 1", got)
	}
	gen := rand.New(rand.NewSource(5))
	for range 10000 {
		a, b := uint64(gen.Int63n(lcgMod-1)+1), uint64(gen.Int63n(lcgMod-1)+1)
		if got, want := mulmod(a, b), a*b%lcgMod; got != want {
			t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
	for _, a := range []uint64{1, 2, lcgMod - 2, lcgMod - 1} {
		for _, b := range []uint64{1, 2, lcgMod - 2, lcgMod - 1} {
			if got, want := mulmod(a, b), a*b%lcgMod; got != want {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// BenchmarkForestFit times one fresh 16-tree forest's first Fit over 40
// observations: seeding its streams, drawing the bootstrap samples and
// growing the trees.
func BenchmarkForestFit(b *testing.B) {
	var xs [][]int
	for a := 0; a < 7; a++ {
		for c := 0; c < 9; c++ {
			if (a*9+c)%3 != 1 && len(xs) < 40 {
				xs = append(xs, []int{a, (a + c) % 4, c})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(3, Options{Seed: 7})
		for _, x := range xs {
			f.Observe(x, synth(x))
		}
		f.Fit()
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
