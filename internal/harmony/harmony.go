// Package harmony implements an Active Harmony-style auto-tuning search
// engine (§III-B of the paper): tuning sessions over a discrete parameter
// space, with exhaustive, Nelder-Mead, Parallel Rank Order and random
// search strategies. The paper's ARCS-Offline strategy uses exhaustive
// search; ARCS-Online uses Nelder-Mead.
//
// A session is driven in the client-server style of Active Harmony:
//
//	pt, done := sess.Fetch()   // next candidate (or the best, once done)
//	perf := measure(pt)
//	sess.Report(perf)          // feeds the strategy, updates the best
//
// A session is stepped only this way, one candidate at a time, as the
// paper's per-region Harmony session is. Concurrency lives above it: a
// caller searching several regions runs one session per region side by
// side (arcs.BatchSearch does), and a session's trajectory depends on
// nothing but its strategy, seed and reported values.
//
// Points are index vectors into the per-parameter value sets; mapping
// indices to OpenMP configuration values is the caller's concern. A
// point's one identity is its lattice index (Space.Index), which keys the
// session's cache and the surrogate's observed set.
package harmony

import (
	"fmt"
	"slices"
)

// Param is one tunable dimension: a name and the cardinality of its
// discrete value set.
type Param struct {
	Name string
	Card int
}

// Space is the Cartesian product of the parameters' value sets.
type Space struct {
	Params []Param
}

// NewSpace validates and builds a space.
func NewSpace(params ...Param) (Space, error) {
	if len(params) == 0 {
		return Space{}, fmt.Errorf("harmony: empty parameter space")
	}
	for _, p := range params {
		if p.Card <= 0 {
			return Space{}, fmt.Errorf("harmony: parameter %q has cardinality %d", p.Name, p.Card)
		}
	}
	return Space{Params: params}, nil
}

// Dims returns the number of parameters.
func (s Space) Dims() int { return len(s.Params) }

// Size returns the total number of lattice points.
func (s Space) Size() int {
	n := 1
	for _, p := range s.Params {
		n *= p.Card
	}
	return n
}

// Valid reports whether p is a point of this space.
func (s Space) Valid(p Point) bool {
	if len(p) != len(s.Params) {
		return false
	}
	for i, v := range p {
		if v < 0 || v >= s.Params[i].Card {
			return false
		}
	}
	return true
}

// Clamp limits each coordinate into range, returning a new point.
func (s Space) Clamp(p Point) Point { return s.clampInto(nil, p) }

// clampInto is Clamp writing into dst's storage, which it grows when too
// short; it returns the clamped point.
func (s Space) clampInto(dst, p Point) Point {
	out := slices.Grow(dst[:0], len(p))[:len(p)]
	for i, v := range p {
		if v < 0 {
			v = 0
		}
		if v >= s.Params[i].Card {
			v = s.Params[i].Card - 1
		}
		out[i] = v
	}
	return out
}

// Index returns the lexicographic lattice index of p (dimension 0
// slowest), in [0, Size()). p must be a point of the space (Valid):
// callers pass clamped or proposed points.
func (s Space) Index(p Point) int {
	idx := 0
	for i, v := range p {
		idx = idx*s.Params[i].Card + v
	}
	return idx
}

// PointAt is Index's inverse: it decodes the lattice index idx into p,
// which must have Dims() coordinates.
func (s Space) PointAt(p Point, idx int) {
	for i := len(p) - 1; i >= 0; i-- {
		card := s.Params[i].Card
		p[i] = idx % card
		idx /= card
	}
}

// Point is an index vector, one index per parameter.
type Point []int

// Clone returns a copy.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Equal reports element-wise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Strategy is a search algorithm. Implementations are single-threaded
// state machines: Next proposes a candidate and Report feeds its measured
// performance (lower is better) back.
type Strategy interface {
	// Next returns the next candidate. ok=false means the strategy has
	// converged or exhausted its budget; use the session's best point.
	// The point is valid until the next call on the strategy, which may
	// reuse its storage; a caller copies what it keeps.
	Next() (p Point, ok bool)
	// Report delivers the performance of the point last returned by Next.
	// p is valid only for the call: a strategy copies what it keeps.
	Report(p Point, perf float64)
	// Converged reports whether the strategy has finished.
	Converged() bool
	// Name identifies the strategy for logs and history files.
	Name() string
}

// Session drives one tuning search: it deduplicates candidate evaluations
// by lattice index (re-reporting cached results to the strategy, as
// Active Harmony's point rejection does), tracks the global best, and
// exposes the fetch/report protocol. The pending and best points live in
// buffers the session owns, so a step copies no point.
type Session struct {
	space Space
	strat Strategy

	cache    map[int]float64
	pending  Point // the fetched point awaiting Report, when hasPend
	hasPend  bool
	best     Point // the best point once hasBest; all zeros before
	bestPerf float64
	hasBest  bool
	evals    int
}

// NewSession creates a session for the given space and strategy.
func NewSession(space Space, strat Strategy) *Session {
	return &Session{space: space, strat: strat, cache: make(map[int]float64),
		best: make(Point, space.Dims())}
}

// Space returns the session's parameter space.
func (s *Session) Space() Space { return s.space }

// StrategyName returns the underlying strategy's name.
func (s *Session) StrategyName() string { return s.strat.Name() }

// Fetch returns the next configuration to run. done=true means the search
// has converged and the returned point is the best found (which the caller
// should keep using; the origin if nothing was evaluated). The point is a
// read-only view of a session buffer, valid until the session's next Fetch
// or Report: a caller that keeps it copies it. Fetch panics if a previous
// Fetch was never Reported.
func (s *Session) Fetch() (p Point, done bool) {
	if s.hasPend {
		panic("harmony: Fetch called with a pending unreported point")
	}
	if s.strat.Converged() {
		return s.best, true
	}
	// Bound the auto-replay loop by the space size plus slack: a strategy
	// proposing only cached points will drain its budget through replays.
	limit := s.space.Size() + 64
	for i := 0; i < limit; i++ {
		p, ok := s.strat.Next()
		if !ok {
			return s.best, true
		}
		s.pending = s.space.clampInto(s.pending, p)
		if perf, seen := s.cache[s.space.Index(s.pending)]; seen {
			s.strat.Report(s.pending, perf)
			if s.strat.Converged() {
				return s.best, true
			}
			continue
		}
		s.hasPend = true
		return s.pending, false
	}
	return s.best, true
}

// Report delivers the measured performance (lower is better) of the point
// returned by the last Fetch.
func (s *Session) Report(perf float64) {
	if !s.hasPend {
		panic("harmony: Report without pending point")
	}
	p := s.pending
	s.hasPend = false
	s.cache[s.space.Index(p)] = perf
	s.evals++
	if !s.hasBest || perf < s.bestPerf {
		copy(s.best, p)
		s.bestPerf = perf
		s.hasBest = true
	}
	s.strat.Report(p, perf)
}

// Best returns the best point and its performance; ok=false if nothing has
// been evaluated yet.
func (s *Session) Best() (Point, float64, bool) {
	if !s.hasBest {
		return nil, 0, false
	}
	return s.best.Clone(), s.bestPerf, true
}

// Converged reports whether the search has finished.
func (s *Session) Converged() bool { return s.strat.Converged() && !s.hasPend }

// Evals returns the number of distinct configurations evaluated.
func (s *Session) Evals() int { return s.evals }
