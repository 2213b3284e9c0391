package harmony

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func space3(t *testing.T) Space {
	t.Helper()
	s, err := NewSpace(Param{"threads", 7}, Param{"sched", 4}, Param{"chunk", 9})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// space5 is shaped like Table I plus the DVFS (6 frequencies) and bind
// (spread/close) dimensions: mixed radices, 3,024 points.
func space5(t *testing.T) Space {
	t.Helper()
	s, err := NewSpace(Param{"threads", 7}, Param{"sched", 4}, Param{"chunk", 9}, Param{"freq", 6}, Param{"bind", 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quad is a convex objective with minimum at target.
func quad(target Point) func(Point) float64 {
	return func(p Point) float64 {
		var s float64
		for i := range p {
			d := float64(p[i] - target[i])
			s += d * d
		}
		return s + 1
	}
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
			// pipeline.
			return NewSurrogate(space, at(0, 0, 0, 0, 0), 0, 424242,
				[]Point{at(4, 2, 5, 3, 1), at(3, 2, 4, 2, 0)}, []float64{1e-9, 1e-9})
		},
	}
}

// sessionOutcome is what a session converged to.
type sessionOutcome struct {
	best  Point
	perf  float64
	evals int
	ok    bool
}

// runSerial drives the Fetch/Report loop to convergence.
func runSerial(t *testing.T, space Space, strat Strategy, f func(Point) float64) sessionOutcome {
	t.Helper()
	sess := NewSession(space, strat)
	for i := 0; i < 100000; i++ {
		p, done := sess.Fetch()
		if done {
			best, perf, ok := sess.Best()
			return sessionOutcome{best: best, perf: perf, evals: sess.Evals(), ok: ok}
		}
		sess.Report(f(p))
	}
	t.Fatal("session did not converge")
	return sessionOutcome{}
}

// runBatch steps a batch of sessions, one per factory, each in its own
// goroutine, the way BatchSearch steps an app's regions side by side. It
// returns each session's outcome and its count of objective calls
// (probes), in factory order.
func runBatch(t *testing.T, space Space, mks []func() Strategy, f func(Point) float64) ([]sessionOutcome, []int) {
	t.Helper()
	outs := make([]sessionOutcome, len(mks))
	probes := make([]int, len(mks))
	var wg sync.WaitGroup
	for i, mk := range mks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(space, mk())
			for n := 0; n <= space.Size(); n++ {
				p, done := sess.Fetch()
				if done {
					outs[i].best, outs[i].perf, outs[i].ok = sess.Best()
					outs[i].evals = sess.Evals()
					return
				}
				probes[i]++
				sess.Report(f(p))
			}
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if !out.ok {
			t.Fatalf("session %d of the batch did not converge to a best", i)
		}
	}
	return outs, probes
}

// drive runs a session to convergence against f, with an eval budget guard.
func drive(t *testing.T, sess *Session, f func(Point) float64, guard int) Point {
	t.Helper()
	for i := 0; i < guard; i++ {
		p, done := sess.Fetch()
		if done {
			return p
		}
		sess.Report(f(p))
	}
	t.Fatalf("session did not converge within %d fetches", guard)
	return nil
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Errorf("empty space must fail")
	}
	if _, err := NewSpace(Param{"x", 0}); err == nil {
		t.Errorf("zero cardinality must fail")
	}
	s, err := NewSpace(Param{"x", 3}, Param{"y", 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 15 || s.Dims() != 2 {
		t.Errorf("Size=%d Dims=%d", s.Size(), s.Dims())
	}
}

func TestSpaceValidClamp(t *testing.T) {
	s := space3(t)
	if !s.Valid(Point{0, 0, 0}) || !s.Valid(Point{6, 3, 8}) {
		t.Errorf("corner points must be valid")
	}
	if s.Valid(Point{7, 0, 0}) || s.Valid(Point{-1, 0, 0}) || s.Valid(Point{0, 0}) {
		t.Errorf("out-of-range points must be invalid")
	}
	c := s.Clamp(Point{99, -5, 4})
	if !c.Equal(Point{6, 0, 4}) {
		t.Errorf("Clamp = %v", c)
	}
}

// TestSpaceIndexInvertsPointAt: the lattice index is PointAt's inverse
// over the whole space, in lexicographic order (dimension 0 slowest).
func TestSpaceIndexInvertsPointAt(t *testing.T) {
	for _, space := range []Space{space3(t), space5(t)} {
		p := make(Point, space.Dims())
		prev := Point(nil)
		for idx := 0; idx < space.Size(); idx++ {
			space.PointAt(p, idx)
			if !space.Valid(p) {
				t.Fatalf("PointAt(%d) = %v outside the space", idx, p)
			}
			if got := space.Index(p); got != idx {
				t.Fatalf("Index(PointAt(%d) = %v) = %d", idx, p, got)
			}
			if prev != nil && slices.Compare(prev, p) >= 0 {
				t.Fatalf("PointAt(%d) = %v does not follow %v lexicographically", idx, p, prev)
			}
			prev = p.Clone()
		}
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Errorf("Clone must not alias")
	}
	if !p.Equal(Point{1, 2, 3}) || p.Equal(q) || p.Equal(Point{1, 2}) {
		t.Errorf("Equal wrong")
	}
}

func TestExhaustiveCoversSpace(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	target := Point{5, 2, 7}
	f := quad(target)
	seen := map[int]int{}
	for {
		p, done := sess.Fetch()
		if done {
			if !p.Equal(target) {
				t.Errorf("best = %v, want %v", p, target)
			}
			break
		}
		seen[s.Index(p)]++
		sess.Report(f(p))
	}
	if len(seen) != s.Size() {
		t.Errorf("visited %d points, want %d", len(seen), s.Size())
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("point %d evaluated %d times", k, n)
		}
	}
	if sess.Evals() != s.Size() {
		t.Errorf("Evals = %d, want %d", sess.Evals(), s.Size())
	}
	if !sess.Converged() {
		t.Errorf("session must report convergence")
	}
}

func TestSessionBestTracksMinimum(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	f := quad(Point{3, 1, 4})
	var minSeen = math.Inf(1)
	for {
		p, done := sess.Fetch()
		if done {
			break
		}
		v := f(p)
		if v < minSeen {
			minSeen = v
		}
		sess.Report(v)
	}
	_, perf, ok := sess.Best()
	if !ok || perf != minSeen {
		t.Errorf("Best perf = %v, want %v", perf, minSeen)
	}
}

func TestSessionProtocolPanics(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Report-before-Fetch", func() { sess.Report(1) })
	if _, done := sess.Fetch(); done {
		t.Fatal("fresh exhaustive session cannot be done")
	}
	mustPanic("double Fetch", func() { sess.Fetch() })
}

func TestSessionConvergedKeepsBest(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewRandom(s, 5, 1))
	f := quad(Point{0, 0, 0})
	for {
		p, done := sess.Fetch()
		if done {
			break
		}
		sess.Report(f(p))
	}
	best, _, _ := sess.Best()
	for i := 0; i < 2; i++ {
		if p, done := sess.Fetch(); !done || !p.Equal(best) {
			t.Errorf("converged Fetch %d: %v, %v; want the best %v", i, p, done, best)
		}
	}
}

func TestNelderMeadFindsGoodPoint(t *testing.T) {
	s := space3(t)
	target := Point{4, 2, 6}
	f := quad(target)
	sess := NewSession(s, NewNelderMead(s, Point{6, 0, 8}, 0))
	best := drive(t, sess, f, 500)
	if f(best) > 4 { // within distance sqrt(3) of the optimum
		t.Errorf("NM best %v (f=%v) too far from target %v", best, f(best), target)
	}
	if sess.Evals() >= s.Size()/2 {
		t.Errorf("NM evaluated %d of %d points; should be far sparser", sess.Evals(), s.Size())
	}
}

func TestNelderMeadBudget(t *testing.T) {
	s := space3(t)
	nm := NewNelderMead(s, Point{0, 0, 0}, 10)
	sess := NewSession(s, nm)
	f := quad(Point{6, 3, 8})
	drive(t, sess, f, 200)
	if !nm.Converged() {
		t.Errorf("NM must converge once budget is spent")
	}
}

func TestNelderMeadDeterministic(t *testing.T) {
	run := func() Point {
		s := space3(t)
		sess := NewSession(s, NewNelderMead(s, Point{3, 3, 3}, 0))
		return drive(t, sess, quad(Point{1, 1, 1}), 500)
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Errorf("NM must be deterministic: %v vs %v", a, b)
	}
}

func TestPROFindsGoodPoint(t *testing.T) {
	s := space3(t)
	target := Point{2, 1, 3}
	f := quad(target)
	sess := NewSession(s, NewPRO(s, Point{6, 3, 8}, 0, 11))
	best := drive(t, sess, f, 1000)
	if f(best) > 6 {
		t.Errorf("PRO best %v (f=%v) too far from target %v", best, f(best), target)
	}
}

func TestRandomBudgetAndDeterminism(t *testing.T) {
	s := space3(t)
	mk := func(seed int64) []int {
		r := NewRandom(s, 20, seed)
		var keys []int
		for {
			p, ok := r.Next()
			if !ok {
				break
			}
			keys = append(keys, s.Index(p))
			r.Report(p, 0)
		}
		return keys
	}
	a, b := mk(5), mk(5)
	if len(a) != 20 {
		t.Errorf("random proposals = %d, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give same sequence")
		}
	}
	c := mk(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should give different sequences")
	}
}

// Property: every strategy only ever proposes valid lattice points, and the
// session's best matches the minimum of what was reported.
func TestStrategyValidityProperty(t *testing.T) {
	f := func(c1, c2, c3 uint8, seed int64, which uint8) bool {
		s, err := NewSpace(
			Param{"a", int(c1%9) + 1},
			Param{"b", int(c2%5) + 1},
			Param{"c", int(c3%12) + 1},
		)
		if err != nil {
			return false
		}
		var strat Strategy
		switch which % 5 {
		case 0:
			strat = NewExhaustive(s)
		case 1:
			strat = NewRandom(s, 25, seed)
		case 2:
			strat = NewNelderMead(s, Point{0, 0, 0}, 40)
		case 3:
			strat = NewCoordinateDescent(s, Point{0, 0, 0}, 40)
		default:
			strat = NewPRO(s, Point{0, 0, 0}, 40, seed)
		}
		sess := NewSession(s, strat)
		obj := quad(Point{int(c1%9) / 2, int(c2%5) / 2, int(c3%12) / 2})
		minSeen := math.Inf(1)
		for i := 0; i < s.Size()+200; i++ {
			p, done := sess.Fetch()
			if !s.Valid(p) {
				return false
			}
			if done {
				break
			}
			v := obj(p)
			if v < minSeen {
				minSeen = v
			}
			sess.Report(v)
		}
		_, perf, ok := sess.Best()
		return ok && perf == minSeen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSessionStepAllocs: a Fetch/Report step over Exhaustive copies no
// point (the session clamps into its pending buffer and copies an
// improvement into its best buffer), and a converged session's Fetch
// allocates nothing. The one allocation left on the search path is the
// evaluation cache's growth, a handful of times over a whole sweep, so
// the per-step average reads 0; a point copied per step would read 1.
func TestSessionStepAllocs(t *testing.T) {
	s := space3(t)
	sess := NewSession(s, NewExhaustive(s))
	f := quad(Point{3, 1, 4})
	step := func() {
		p, done := sess.Fetch()
		if done {
			t.Fatal("the sweep ended inside the measured window")
		}
		sess.Report(f(p))
	}
	for i := 0; i < 20; i++ { // warm-up: the session's buffers and the odometer's
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a Fetch/Report step allocates %v times; want 0", n)
	}
	for {
		p, done := sess.Fetch()
		if done {
			break
		}
		sess.Report(f(p))
	}
	want, _, _ := sess.Best()
	if n := testing.AllocsPerRun(100, func() {
		if p, done := sess.Fetch(); !done || !p.Equal(want) {
			t.Fatalf("converged Fetch: %v, %v; want %v, true", p, done, want)
		}
	}); n != 0 {
		t.Fatalf("a converged Fetch allocates %v times; want 0", n)
	}
}

// replayChecker wraps a strategy and checks every value the session
// reports to it, fresh or replayed from the session cache, against the
// objective at the reported point. It counts the reports.
type replayChecker struct {
	Strategy
	t       *testing.T
	f       func(Point) float64
	reports int
}

func (c *replayChecker) Report(p Point, perf float64) {
	if want := c.f(p); perf != want {
		c.t.Fatalf("%s: reported %g for %v, whose value is %g", c.Name(), perf, p, want)
	}
	c.reports++
	c.Strategy.Report(p, perf)
}

// TestSessionEveryStrategy drives every strategy through the serial
// session over the 3-D Table I space and the 5-D one with DVFS and bind,
// so the index-keyed evaluation cache is checked at mixed radices: every
// fetch is a valid point never fetched before (evaluations equal
// fetches), every replayed value belongs to the point it is replayed for,
// the best is the first minimum reported, and a second run repeats the
// trajectory exactly.
func TestSessionEveryStrategy(t *testing.T) {
	for _, space := range []Space{space3(t), space5(t)} {
		objectives := map[string]func(Point) float64{
			"quad":   quad(Point{4, 2, 5, 3, 1}[:space.Dims()]),
			"rugged": rugged,
		}
		replays := 0
		for objName, f := range objectives {
			for name, mk := range strategyCases(space) {
				run := func() ([]int, sessionOutcome) {
					strat := &replayChecker{Strategy: mk(), t: t, f: f}
					sess := NewSession(space, strat)
					var trace []int
					seen := map[int]bool{}
					var best Point
					bestPerf := math.Inf(1)
					for {
						if len(trace) > space.Size() {
							t.Fatalf("%dD %s/%s: more fetches than lattice points", space.Dims(), objName, name)
						}
						p, done := sess.Fetch()
						if !space.Valid(p) {
							t.Fatalf("%dD %s/%s: fetched %v outside the space", space.Dims(), objName, name, p)
						}
						if done {
							break
						}
						k := space.Index(p)
						if seen[k] {
							t.Fatalf("%dD %s/%s: fetched %v twice", space.Dims(), objName, name, p)
						}
						seen[k] = true
						trace = append(trace, k)
						v := f(p)
						if v < bestPerf {
							best, bestPerf = p.Clone(), v
						}
						sess.Report(v)
					}
					out := sessionOutcome{evals: sess.Evals()}
					out.best, out.perf, out.ok = sess.Best()
					if !out.ok || !out.best.Equal(best) || out.perf != bestPerf || out.evals != len(trace) {
						t.Fatalf("%dD %s/%s: best %v (%g) after %d evals; want %v (%g) after %d fetches",
							space.Dims(), objName, name, out.best, out.perf, out.evals, best, bestPerf, len(trace))
					}
					if p, done := sess.Fetch(); !done || !p.Equal(best) {
						t.Fatalf("%dD %s/%s: converged Fetch %v, %v; want the best %v", space.Dims(), objName, name, p, done, best)
					}
					replays += strat.reports - out.evals
					return trace, out
				}
				tr1, out1 := run()
				tr2, out2 := run()
				if !slices.Equal(tr1, tr2) || !out1.best.Equal(out2.best) || out1.perf != out2.perf {
					t.Errorf("%dD %s/%s: a second run diverged", space.Dims(), objName, name)
				}
			}
		}
		if replays == 0 {
			t.Errorf("%dD: no strategy was served a replay, so the cache went unchecked", space.Dims())
		}
	}
}

// TestBatchedMatchesSerialEveryStrategy runs every strategy over the 3-D
// Table I space and the 5-D one with DVFS and bind, twice each, as one
// batch of sessions stepped concurrently: each session must converge to
// the winner, winning performance and evaluation count of the same
// strategy run alone, so sessions share no state and a batch's
// scheduling cannot move a result.
func TestBatchedMatchesSerialEveryStrategy(t *testing.T) {
	for _, space := range []Space{space3(t), space5(t)} {
		objectives := map[string]func(Point) float64{
			"quad":   quad(Point{4, 2, 5, 3, 1}[:space.Dims()]),
			"rugged": rugged,
		}
		cases := strategyCases(space)
		names := make([]string, 0, len(cases))
		for name := range cases {
			names = append(names, name)
		}
		sort.Strings(names)
		for objName, f := range objectives {
			var mks []func() Strategy
			for range 2 {
				for _, name := range names {
					mks = append(mks, cases[name])
				}
			}
			outs, probes := runBatch(t, space, mks, f)
			for i, out := range outs {
				name := names[i%len(names)]
				serial := runSerial(t, space, mks[i](), f)
				if !serial.best.Equal(out.best) || serial.perf != out.perf || serial.evals != out.evals {
					t.Errorf("%dD %s/%s: batched best %v (%g) after %d evals; serial %v (%g) after %d",
						space.Dims(), objName, name, out.best, out.perf, out.evals, serial.best, serial.perf, serial.evals)
				}
				if probes[i] != out.evals {
					t.Errorf("%dD %s/%s: %d probes for %d evals", space.Dims(), objName, name, probes[i], out.evals)
				}
			}
		}
	}
}

// TestBatchedExhaustiveProbeCount: a batch of exhaustive sessions stepped
// concurrently probes each lattice point exactly once per session.
func TestBatchedExhaustiveProbeCount(t *testing.T) {
	space := space3(t)
	target := Point{1, 1, 1}
	mks := make([]func() Strategy, 16)
	for i := range mks {
		mks[i] = func() Strategy { return NewExhaustive(space) }
	}
	outs, probes := runBatch(t, space, mks, quad(target))
	for i, out := range outs {
		if !out.best.Equal(target) {
			t.Errorf("session %d: best %v, want %v", i, out.best, target)
		}
		if probes[i] != space.Size() || out.evals != space.Size() {
			t.Errorf("session %d: %d probes, %d evals; want %d each (one per lattice point)",
				i, probes[i], out.evals, space.Size())
		}
	}
}

// TestBatchedSpeculationIsBounded: a session never probes a point it does
// not evaluate, so a batch of Nelder-Mead sessions stepped concurrently
// makes exactly one probe per evaluation.
func TestBatchedSpeculationIsBounded(t *testing.T) {
	space := space3(t)
	mks := make([]func() Strategy, 8)
	for i := range mks {
		start := Point{i % 7, i % 4, i % 9}
		mks[i] = func() Strategy { return NewNelderMead(space, start, 0) }
	}
	outs, probes := runBatch(t, space, mks, rugged)
	for i, out := range outs {
		if probes[i] != out.evals {
			t.Errorf("session %d: %d probes for %d evals", i, probes[i], out.evals)
		}
	}
}
