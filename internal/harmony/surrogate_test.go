package harmony

import "testing"

func TestSurrogateFindsOptimum(t *testing.T) {
	space := space3(t)
	target := Point{4, 2, 5}
	f := quad(target)
	out := runSerial(t, space, NewSurrogate(space, Point{0, 0, 0}, 0, 11, nil, nil), f)
	if !out.ok {
		t.Fatal("no best")
	}
	if !out.best.Equal(target) {
		t.Errorf("best = %v (perf %g), want %v", out.best, out.perf, target)
	}
	if out.evals >= space.Size() {
		t.Errorf("surrogate used %d evals on a %d-point space", out.evals, space.Size())
	}
}

func TestSurrogateSeededConvergesFaster(t *testing.T) {
	space := space3(t)
	target := Point{4, 2, 5}
	f := quad(target)
	cold := runSerial(t, space, NewSurrogate(space, Point{0, 0, 0}, 0, 11, nil, nil), f)
	seeded := runSerial(t, space,
		NewSurrogate(space, Point{0, 0, 0}, 0, 11, []Point{{4, 2, 4}, {3, 2, 5}}, nil), f)
	if !seeded.ok || !seeded.best.Equal(target) {
		t.Fatalf("seeded best = %v, want %v", seeded.best, target)
	}
	if seeded.evals >= cold.evals {
		t.Errorf("seeded run took %d evals, cold took %d: seeding did not help", seeded.evals, cold.evals)
	}
}

// TestSurrogateDeterministic: identical constructions produce identical
// full trajectories.
func TestSurrogateDeterministic(t *testing.T) {
	space := space3(t)
	f := rugged
	run := func() ([]int, sessionOutcome) {
		strat := NewSurrogate(space, Point{1, 1, 1}, 0, 77, []Point{{5, 3, 7}}, nil)
		sess := NewSession(space, strat)
		var trace []int
		for i := 0; i < 10000; i++ {
			p, done := sess.Fetch()
			if done {
				best, perf, ok := sess.Best()
				return trace, sessionOutcome{best: best, perf: perf, evals: sess.Evals(), ok: ok}
			}
			trace = append(trace, space.Index(p))
			sess.Report(f(p))
		}
		t.Fatal("did not converge")
		return nil, sessionOutcome{}
	}
	tr1, out1 := run()
	tr2, out2 := run()
	if len(tr1) != len(tr2) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("trajectories diverge at step %d: %d vs %d", i, tr1[i], tr2[i])
		}
	}
	if !out1.best.Equal(out2.best) || out1.perf != out2.perf || out1.evals != out2.evals {
		t.Errorf("outcomes differ: %+v vs %+v", out1, out2)
	}
}

// TestSurrogateSeedsProbedFirst: transfer seeds are the first candidates
// the strategy proposes, before any design filler or model proposals.
func TestSurrogateSeedsProbedFirst(t *testing.T) {
	space := space3(t)
	seeds := []Point{{6, 3, 8}, {2, 1, 2}}
	strat := NewSurrogate(space, Point{0, 0, 0}, 0, 5, seeds, nil)
	sess := NewSession(space, strat)
	for i, want := range seeds {
		p, done := sess.Fetch()
		if done {
			t.Fatalf("converged before probing seed %d", i)
		}
		if !p.Equal(want) {
			t.Errorf("probe %d = %v, want seed %v", i, p, want)
		}
		sess.Report(float64(10 - i))
	}
}

// TestSurrogateInvalidSeedsDropped: out-of-space and duplicate seeds must
// not break construction or leak out-of-range candidates.
func TestSurrogateInvalidSeedsDropped(t *testing.T) {
	space := space3(t)
	strat := NewSurrogate(space, Point{0, 0, 0}, 0, 5, []Point{
		{99, 99, 99},    // clamped into range
		{1, 2},          // wrong dimensionality: dropped
		{3, 2, 4},       // fine
		{3, 2, 4},       // duplicate: dropped
		{6, 3, 8, 1, 2}, // wrong dimensionality: dropped
	}, nil)
	out := runSerial(t, space, strat, quad(Point{3, 2, 4}))
	if !out.ok {
		t.Fatal("no best")
	}
	if !space.Valid(out.best) {
		t.Errorf("winner %v outside space", out.best)
	}
}

// TestSurrogateRespectsBudget: reported evaluations never exceed maxEvals.
func TestSurrogateRespectsBudget(t *testing.T) {
	space := space3(t)
	for _, budget := range []int{1, 2, 5, 12} {
		strat := NewSurrogate(space, Point{0, 0, 0}, budget, 3, nil, nil)
		sess := NewSession(space, strat)
		n := 0
		for i := 0; i < 10000; i++ {
			p, done := sess.Fetch()
			if done {
				break
			}
			n++
			sess.Report(rugged(p))
		}
		if n > budget {
			t.Errorf("budget %d: %d fresh evaluations", budget, n)
		}
	}
}

// TestSurrogateTransferVerified: a seed performing as its source context
// promised ends the search after that single probe, with the seed as the
// winner — the one-probe path transfer seeding exists for.
func TestSurrogateTransferVerified(t *testing.T) {
	space := space3(t)
	target := Point{4, 2, 5}
	f := quad(target)
	seed := Point{4, 2, 4} // near-optimal import; f(seed) = 1
	strat := NewSurrogate(space, seed, 0, 11, []Point{seed}, []float64{f(seed)})
	out := runSerial(t, space, strat, f)
	if !out.ok || !out.best.Equal(seed) {
		t.Fatalf("best = %v, want the verified seed %v", out.best, seed)
	}
	if out.evals != 1 {
		t.Errorf("verified transfer took %d evals, want 1", out.evals)
	}
}

// TestSurrogateTransferDeviationSearches: a seed that performs worse than
// its promise means the context differs from its neighbours — the
// strategy must fall through to the full search and still find the
// optimum instead of trusting the bad import.
func TestSurrogateTransferDeviationSearches(t *testing.T) {
	space := space3(t)
	target := Point{4, 2, 5}
	f := quad(target)
	seed := Point{0, 0, 0} // far off; f(seed) large
	strat := NewSurrogate(space, seed, 0, 11, []Point{seed}, []float64{f(seed) / 100})
	out := runSerial(t, space, strat, f)
	if !out.ok || !out.best.Equal(target) {
		t.Fatalf("best = %v (perf %g), want full search to reach %v", out.best, out.perf, target)
	}
	if out.evals <= 1 {
		t.Errorf("deviating seed must trigger a search, got %d evals", out.evals)
	}
}

// TestSurrogateTransferZeroPerfIgnored: zero/unknown expectations carry
// no promise — the strategy behaves exactly like plain seeding.
func TestSurrogateTransferZeroPerfIgnored(t *testing.T) {
	space := space3(t)
	f := quad(Point{4, 2, 5})
	seeds := []Point{{4, 2, 4}, {3, 2, 5}}
	plain := runSerial(t, space, NewSurrogate(space, seeds[0], 0, 11, seeds, nil), f)
	zeroed := runSerial(t, space, NewSurrogate(space, seeds[0], 0, 11, seeds, []float64{0, 0}), f)
	if !plain.best.Equal(zeroed.best) || plain.evals != zeroed.evals {
		t.Errorf("zero expectations changed the trajectory: %+v vs %+v", plain, zeroed)
	}
}

// TestSurrogateBatchSpeculationBounded: the surrogate proposes one point
// per round and the session evaluates it, so a batch of surrogate
// sessions stepped concurrently makes exactly one probe per evaluation.
func TestSurrogateBatchSpeculationBounded(t *testing.T) {
	space := space3(t)
	mks := make([]func() Strategy, 8)
	for i := range mks {
		seed := int64(21 + i)
		mks[i] = func() Strategy { return NewSurrogate(space, Point{0, 0, 0}, 0, seed, nil, nil) }
	}
	outs, probes := runBatch(t, space, mks, rugged)
	for i, out := range outs {
		if probes[i] != out.evals {
			t.Errorf("session %d: %d probes for %d evals", i, probes[i], out.evals)
		}
	}
}

// TestSurrogateProposesValidPoints: every point the strategy proposes
// through Next, in every phase, is a point of its space, so reporting it
// back (the observed set is indexed by lattice position) needs no
// clamping. In the model phase the proposal is an unobserved point. It
// drives the strategy directly, without a session.
func TestSurrogateProposesValidPoints(t *testing.T) {
	space := space3(t)
	for _, seed := range []int64{3, 11, 77} {
		strats := []*SurrogateStrategy{
			NewSurrogate(space, Point{0, 0, 0}, 0, seed, nil, nil),
			NewSurrogate(space, Point{-3, 9, 40}, 0, seed, []Point{{6, 3, 8}, {9, -1, 2}}, nil),
			NewSurrogate(space, Point{1, 1, 1}, 0, seed, []Point{{0, 0, 0}}, []float64{1e-3}),
		}
		for _, s := range strats {
			for i := 0; !s.Converged(); i++ {
				if i > space.Size()+64 {
					t.Fatalf("seed %d: no convergence after %d reports", seed, i)
				}
				modelPhase := s.modelStarted && s.refine == nil && !s.polishing
				p, ok := s.Next()
				if !ok {
					break
				}
				if !space.Valid(p) {
					t.Fatalf("seed %d: Next proposed %v outside the space", seed, p)
				}
				if modelPhase && s.observed[space.Index(p)] {
					t.Fatalf("seed %d: the model phase re-proposed the observed point %v", seed, p)
				}
				s.Report(p, rugged(p))
			}
		}
	}
}

// TestSurrogateReportRejectsOutsidePoint: Report refuses a point outside
// the space rather than aliasing it onto the lattice index of one inside
// it.
func TestSurrogateReportRejectsOutsidePoint(t *testing.T) {
	space := space3(t)
	s := NewSurrogate(space, Point{0, 0, 0}, 0, 1, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("Report accepted a point outside the space")
		}
	}()
	s.Report(Point{0, 4, 0}, 1)
}
