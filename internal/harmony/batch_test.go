package harmony

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// batch_test.go: differential tests for the batched session protocol.
// For every strategy, a session driven through FetchBatch/ReportBatch —
// with candidates evaluated by concurrent goroutines completing in
// arbitrary order — must converge to the identical winning point, winning
// performance and evaluation count as the serial Fetch/Report loop at the
// same seed, because reports are merged in batch order.

// strategyCases enumerates every strategy with a deterministic factory.
// Start and seed points are written for five dimensions and cut to the
// space's.
func strategyCases(space Space) map[string]func() Strategy {
	at := func(vs ...int) Point { return Point(vs[:space.Dims()]) }
	return map[string]func() Strategy{
		"exhaustive": func() Strategy { return NewExhaustive(space) },
		"nelder-mead": func() Strategy {
			return NewNelderMead(space, at(0, 0, 0, 0, 0), 0)
		},
		"pro": func() Strategy {
			return NewPRO(space, at(0, 0, 0, 0, 0), 0, 12345)
		},
		"random": func() Strategy { return NewRandom(space, 60, 6789) },
		"coordinate-descent": func() Strategy {
			return NewCoordinateDescent(space, at(3, 1, 4, 2, 1), 0)
		},
		"surrogate": func() Strategy {
			return NewSurrogate(space, at(0, 0, 0, 0, 0), 0, 424242, nil, nil)
		},
		"surrogate-seeded": func() Strategy {
			return NewSurrogate(space, at(0, 0, 0, 0, 0), 0, 424242,
				[]Point{at(4, 2, 5, 3, 1), at(3, 2, 4, 2, 0)}, nil)
		},
		"surrogate-transfer": func() Strategy {
			// Expectations deliberately unmeetable on the rugged objective,
			// so the strategy falls through the verified exit into the full
			// pipeline — the batched trajectory must still match serial.
			return NewSurrogate(space, at(0, 0, 0, 0, 0), 0, 424242,
				[]Point{at(4, 2, 5, 3, 1), at(3, 2, 4, 2, 0)}, []float64{1e-9, 1e-9})
		},
	}
}

// sessionOutcome is everything the differential comparison checks.
type sessionOutcome struct {
	best  Point
	perf  float64
	evals int
	ok    bool
}

// runSerial drives the classic Fetch/Report loop to convergence.
func runSerial(t *testing.T, space Space, strat Strategy, f func(Point) float64) sessionOutcome {
	t.Helper()
	sess := NewSession(space, strat)
	for i := 0; i < 100000; i++ {
		p, done := sess.Fetch()
		if done {
			best, perf, ok := sess.Best()
			_ = p
			return sessionOutcome{best: best, perf: perf, evals: sess.Evals(), ok: ok}
		}
		sess.Report(f(p))
	}
	t.Fatal("serial session did not converge")
	return sessionOutcome{}
}

// runBatched drives FetchBatch/ReportBatch with width-wide batches whose
// members are evaluated by concurrent goroutines (completion order is up
// to the scheduler; only the index-addressed result slots matter).
func runBatched(t *testing.T, space Space, strat Strategy, f func(Point) float64, width int, probes *atomic.Int64) sessionOutcome {
	t.Helper()
	sess := NewSession(space, strat)
	for i := 0; i < 100000; i++ {
		batch, done := sess.FetchBatch(width)
		if done {
			best, perf, ok := sess.Best()
			return sessionOutcome{best: best, perf: perf, evals: sess.Evals(), ok: ok}
		}
		perfs := make([]float64, len(batch))
		var wg sync.WaitGroup
		for j, p := range batch {
			wg.Add(1)
			go func(j int, p Point) {
				defer wg.Done()
				if probes != nil {
					probes.Add(1)
				}
				perfs[j] = f(p)
			}(j, p)
		}
		wg.Wait()
		sess.ReportBatch(perfs)
	}
	t.Fatal("batched session did not converge")
	return sessionOutcome{}
}

// rugged is a deterministic multi-modal objective: enough structure to
// exercise every Nelder-Mead branch (expand, both contractions, shrink).
func rugged(p Point) float64 {
	v := 0.0
	for i, x := range p {
		d := float64(x - 2*i)
		v += d*d + 3*math.Sin(float64(x)*1.7+float64(i))
	}
	return v
}

// TestBatchedMatchesSerialEveryStrategy runs over the 3-D Table I space
// and the 5-D one with DVFS and bind, so the session's index-keyed
// de-duplication is checked at mixed radices.
func TestBatchedMatchesSerialEveryStrategy(t *testing.T) {
	for _, space := range []Space{space3(t), space5(t)} {
		objectives := map[string]func(Point) float64{
			"quad":   quad(Point{4, 2, 5, 3, 1}[:space.Dims()]),
			"rugged": rugged,
		}
		for objName, f := range objectives {
			for name, mk := range strategyCases(space) {
				for _, width := range []int{1, 2, 3, 8, 64} {
					serial := runSerial(t, space, mk(), f)
					batched := runBatched(t, space, mk(), f, width, nil)
					if !serial.ok || !batched.ok {
						t.Fatalf("%dD %s/%s width %d: no best (serial ok=%v batched ok=%v)",
							space.Dims(), objName, name, width, serial.ok, batched.ok)
					}
					if !serial.best.Equal(batched.best) {
						t.Errorf("%dD %s/%s width %d: winner %v (batched) != %v (serial)",
							space.Dims(), objName, name, width, batched.best, serial.best)
					}
					if serial.perf != batched.perf {
						t.Errorf("%dD %s/%s width %d: perf %g (batched) != %g (serial)",
							space.Dims(), objName, name, width, batched.perf, serial.perf)
					}
					if serial.evals != batched.evals {
						t.Errorf("%dD %s/%s width %d: evals %d (batched) != %d (serial)",
							space.Dims(), objName, name, width, batched.evals, serial.evals)
					}
				}
			}
		}
	}
}

// TestBatchedExhaustiveProbeCount: exhaustive enumeration has no
// speculation, so the batched session probes each lattice point exactly
// once no matter the width.
func TestBatchedExhaustiveProbeCount(t *testing.T) {
	space := space3(t)
	var probes atomic.Int64
	out := runBatched(t, space, NewExhaustive(space), quad(Point{1, 1, 1}), 16, &probes)
	if !out.ok {
		t.Fatal("no best")
	}
	if got := int(probes.Load()); got != space.Size() {
		t.Errorf("probes = %d, want %d (one per lattice point)", got, space.Size())
	}
	if out.evals != space.Size() {
		t.Errorf("evals = %d, want %d", out.evals, space.Size())
	}
}

// TestBatchedSpeculationIsBounded: Nelder-Mead speculates at most the
// three untaken branches per reflection, so total probes stay within a
// small multiple of consumed evaluations.
func TestBatchedSpeculationIsBounded(t *testing.T) {
	space := space3(t)
	var probes atomic.Int64
	out := runBatched(t, space, NewNelderMead(space, Point{0, 0, 0}, 0), rugged, 8, &probes)
	if !out.ok {
		t.Fatal("no best")
	}
	if got := int(probes.Load()); got > 4*out.evals+16 {
		t.Errorf("probes = %d for %d evals: speculation unbounded", got, out.evals)
	}
}

// TestFetchBatchWidthOne degenerates to the serial protocol: every batch
// has exactly one member.
func TestFetchBatchWidthOne(t *testing.T) {
	space := space3(t)
	sess := NewSession(space, NewNelderMead(space, Point{0, 0, 0}, 0))
	for i := 0; i < 10000; i++ {
		batch, done := sess.FetchBatch(1)
		if done {
			return
		}
		if len(batch) != 1 {
			t.Fatalf("width-1 batch has %d members", len(batch))
		}
		sess.ReportBatch([]float64{rugged(batch[0])})
	}
	t.Fatal("did not converge")
}

// TestBatchProtocolMisuse: the batched protocol panics on double fetch
// and on a perf slice of the wrong length, mirroring Fetch/Report.
func TestBatchProtocolMisuse(t *testing.T) {
	space := space3(t)
	sess := NewSession(space, NewExhaustive(space))
	if _, done := sess.FetchBatch(4); done {
		t.Fatal("fresh session converged")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double FetchBatch did not panic")
			}
		}()
		sess.FetchBatch(4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short ReportBatch did not panic")
			}
		}()
		sess.ReportBatch([]float64{1})
	}()
}

// TestBatchSerialInterleave: alternating width-1 (the serial shim) and
// wide rounds on one session still matches the all-serial run.
func TestBatchSerialInterleave(t *testing.T) {
	space := space3(t)
	f := rugged
	serial := runSerial(t, space, NewPRO(space, Point{0, 0, 0}, 0, 99), f)

	sess := NewSession(space, NewPRO(space, Point{0, 0, 0}, 0, 99))
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatal("did not converge")
		}
		width := 1
		if i%2 == 1 {
			width = 4
		}
		batch, done := sess.FetchBatch(width)
		if done {
			break
		}
		perfs := make([]float64, len(batch))
		for j, p := range batch {
			perfs[j] = f(p)
		}
		sess.ReportBatch(perfs)
	}
	best, perf, ok := sess.Best()
	if !ok || !best.Equal(serial.best) || perf != serial.perf || sess.Evals() != serial.evals {
		t.Errorf("interleaved: best=%v perf=%g evals=%d, want %v %g %d",
			best, perf, sess.Evals(), serial.best, serial.perf, serial.evals)
	}
}
