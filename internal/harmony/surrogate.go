package harmony

import (
	"fmt"

	"arcs/internal/surrogate"
)

// SurrogateStrategy is model-guided search: it fits a deterministic
// regression forest (internal/surrogate) over every probe result and
// proposes the unobserved lattice point with the highest expected
// improvement, instead of the blind geometric moves of simplex or
// round-based strategies. Once the model stops expecting meaningful
// improvement — or a few model-chosen probes in a row fail to beat the
// incumbent — it falls back to a short budget-capped Nelder-Mead
// refinement around the best point found.
//
// The strategy accepts transfer seeds: lattice points imported from
// neighbouring contexts in the knowledge store (nearby power caps, same
// app at another workload size). Seeds are probed first and give the
// model a head start near the optimum, which is what collapses new-context
// search cost; with no seeds the strategy starts from a small
// deterministic space-filling design and behaves like classic surrogate
// optimisation.
//
// Like every strategy in this package it is a deterministic serial state
// machine: all mutation happens in Report, and Next is pure.
type SurrogateStrategy struct {
	space    Space
	model    *surrogate.Forest
	maxEvals int

	reports  int
	observed []bool // by lattice index (Space.Index)
	nObs     int
	scan     Point // buffer Space.PointAt decodes into

	queue []Point // remaining initial-design points (seed phase)
	want  Point   // next candidate while the model phase is active

	bestP   Point
	bestF   float64
	hasBest bool
	yLo     float64
	yHi     float64

	modelStarted bool
	stall        int

	refine *NelderMead
	// Polish phase: after refinement, the unit neighbourhood of the
	// incumbent is swept until it is a lattice-local optimum (Nelder-Mead
	// can orbit an optimum's unit shell without probing its centre).
	// Points the earlier phases measured replay from the session cache,
	// so late rings are mostly free.
	polishing bool
	polishQ   []Point
	done      bool

	// expect maps a transfer seed's lattice index to the perf its source
	// context promised (NewSurrogate's perfs). A seed probe that performs
	// at least that well — the transfer hypothesis verified in one
	// measurement — ends the search immediately; a seed that deviates
	// falls through to the full model pipeline.
	expect map[int]float64
}

// Tuning constants. The probe economics they encode are exercised by the
// differential winner-quality suite and the surrogate benchmarks, which
// gate both quality (vs exhaustive) and probe counts (vs cold
// Nelder-Mead) — change them there-first.
const (
	// surDesignFactor sizes the cold-start space-filling design at
	// surDesignFactor*dims+2 points; transfer seeds replace the filler.
	surDesignFactor = 2
	// surEITolFrac: the model phase ends when the best expected
	// improvement drops below this fraction of the observed perf spread.
	surEITolFrac = 0.02
	// surStallLimit: the model phase also ends after this many
	// consecutive model-chosen probes that fail to improve the incumbent.
	surStallLimit = 3
	// surRefineEvals caps the closing Nelder-Mead refinement budget at
	// 3*dims+surRefineEvals reports (its simplex re-probes the incumbent
	// and nearby model-phase points from the session cache, so a chunk of
	// these are cheap replays, not fresh probes).
	surRefineEvals = 3
	// surTransferTolFrac: a transfer seed whose measured perf is within
	// this fraction of its source context's promise verifies the transfer
	// and ends the search. Wide enough to absorb the perf shift a nearby
	// power cap induces, tight enough that a genuinely changed context
	// (different optimum) deviates and triggers the full search.
	surTransferTolFrac = 0.10
)

// NewSurrogate builds a surrogate-model search over space starting at
// start. maxEvals bounds reported evaluations (<=0 selects the same
// dimension-scaled default as Nelder-Mead, keeping budgets comparable).
// seed drives the deterministic bootstrap and design sampling. seeds are
// optional transfer points probed before anything else; duplicates and
// out-of-space points are dropped. perfs[i], when present and positive,
// is the objective value seeds[i] achieved in its source context: a seed
// probe that measures within surTransferTolFrac of that promise verifies
// the transfer hypothesis and ends the search on the spot, the one-probe
// path that collapses new-context search cost. Seeds without a promise,
// and seeds that deviate from it (the context genuinely differs from its
// neighbours), are just design points: the strategy falls through to the
// usual model/refine/polish pipeline.
func NewSurrogate(space Space, start Point, maxEvals int, seed int64, seeds []Point, perfs []float64) *SurrogateStrategy {
	d := space.Dims()
	if maxEvals <= 0 {
		maxEvals = 30 * d
		if sz := space.Size(); maxEvals > sz {
			maxEvals = sz
		}
	}
	s := &SurrogateStrategy{
		space:    space,
		model:    surrogate.NewForest(d, surrogate.Options{Seed: seed}),
		maxEvals: maxEvals,
		observed: make([]bool, space.Size()),
		scan:     make(Point, d),
	}
	// Initial design: transfer seeds first (they are the best guesses),
	// then the caller's start point, then — only when that leaves the
	// design too small to fit a first model — deterministic filler drawn
	// from a seeded stream.
	inDesign := make([]bool, len(s.observed))
	push := func(p Point) int {
		p = space.Clamp(p)
		i := space.Index(p)
		if !inDesign[i] {
			inDesign[i] = true
			s.queue = append(s.queue, p)
		}
		return i
	}
	for i, p := range seeds {
		if len(p) != d {
			continue
		}
		k := push(p)
		if i >= len(perfs) || perfs[i] <= 0 {
			continue
		}
		if s.expect == nil {
			s.expect = make(map[int]float64, len(seeds))
		}
		if _, dup := s.expect[k]; !dup {
			s.expect[k] = perfs[i]
		}
	}
	push(start)
	minDesign := surDesignFactor*d + 2
	if len(seeds) == 0 && len(s.queue) < minDesign {
		rng := surrogate.NewStream(seed, make([]int32, 0, 2*minDesign))
		sz := space.Size()
		for tries := 0; len(s.queue) < minDesign && tries < 16*sz; tries++ {
			space.PointAt(s.scan, rng.Intn(sz))
			push(s.scan)
		}
	}
	s.want, s.queue = s.queue[0], s.queue[1:]
	return s
}

// Name implements Strategy.
func (s *SurrogateStrategy) Name() string { return "surrogate" }

// Converged implements Strategy.
func (s *SurrogateStrategy) Converged() bool { return s.done }

// Next implements Strategy.
func (s *SurrogateStrategy) Next() (Point, bool) {
	if s.done {
		return nil, false
	}
	if s.refine != nil {
		return s.refine.Next()
	}
	return s.want.Clone(), true
}

// Report implements Strategy. It feeds the observation to the model,
// advances the phase machine, and — in the model phase — refits and picks
// the next expected-improvement candidate. p must be a point of the space
// (Space.Valid), as every point the strategy proposes is; Report panics
// on any other, since the observed set is indexed by lattice position.
func (s *SurrogateStrategy) Report(p Point, f float64) {
	if s.done {
		return
	}
	if !s.space.Valid(p) {
		panic(fmt.Sprintf("harmony: surrogate given point %v outside its space", p))
	}
	s.reports++
	i := s.space.Index(p)
	if !s.observed[i] {
		s.observed[i] = true
		s.model.Observe(p, f)
		s.nObs++
		if s.nObs == 1 || f < s.yLo {
			s.yLo = f
		}
		if s.nObs == 1 || f > s.yHi {
			s.yHi = f
		}
	}
	improved := !s.hasBest || f < s.bestF
	if improved {
		s.bestP, s.bestF, s.hasBest = p.Clone(), f, true
	}
	// Verified-transfer exit: a seed performing as its source context
	// promised proves the neighbouring optimum carried over — nothing
	// left worth probing.
	if s.expect != nil && s.refine == nil && !s.polishing {
		if e, ok := s.expect[i]; ok && f <= e*(1+surTransferTolFrac) {
			s.done = true
			return
		}
	}
	if s.refine != nil {
		s.refine.Report(p, f)
		if s.reports >= s.maxEvals {
			s.done = true
			return
		}
		if s.refine.Converged() {
			s.refine = nil
			s.startPolish()
		}
		return
	}
	if s.polishing {
		if s.reports >= s.maxEvals {
			s.done = true
			return
		}
		s.advancePolish(improved)
		return
	}
	if s.modelStarted {
		if improved {
			s.stall = 0
		} else {
			s.stall++
		}
	}
	if s.reports >= s.maxEvals {
		s.done = true
		return
	}
	s.advance()
}

// startPolish arms the unit-neighbourhood sweep around the incumbent.
func (s *SurrogateStrategy) startPolish() {
	s.polishing = true
	s.buildRing()
	s.advancePolish(false)
}

// advancePolish steps the sweep: an improvement recentres the ring on the
// new incumbent; an exhausted ring means the incumbent is a lattice-local
// optimum and the search is done.
func (s *SurrogateStrategy) advancePolish(improved bool) {
	if improved {
		s.buildRing()
	}
	if len(s.polishQ) == 0 {
		s.done = true
		return
	}
	s.want, s.polishQ = s.polishQ[0], s.polishQ[1:]
}

// buildRing queues the unit neighbours of the incumbent, in dimension
// order. Already-observed neighbours stay queued: the session replays
// them from its cache at no probe cost.
func (s *SurrogateStrategy) buildRing() {
	s.polishQ = s.polishQ[:0]
	for d := 0; d < s.space.Dims(); d++ {
		for _, dv := range [2]int{-1, 1} {
			v := s.bestP[d] + dv
			if v < 0 || v >= s.space.Params[d].Card {
				continue
			}
			q := s.bestP.Clone()
			q[d] = v
			s.polishQ = append(s.polishQ, q)
		}
	}
}

// advance picks the next candidate: drain the initial design, then run
// the expected-improvement loop, then hand over to refinement.
func (s *SurrogateStrategy) advance() {
	for len(s.queue) > 0 {
		q := s.queue[0]
		s.queue = s.queue[1:]
		if !s.observed[s.space.Index(q)] {
			s.want = q
			return
		}
	}
	s.fitAndPick()
}

// fitAndPick refits the forest and scans the lattice for the unobserved
// point maximising expected improvement. Scan order is lexicographic and
// ties keep the earlier point, so the choice is deterministic. The scan
// decodes each point into one buffer and copies only the point it
// proposes. When the best EI falls below tolerance, the model proposals
// stall, or the lattice is exhausted, it switches to the refinement
// phase.
func (s *SurrogateStrategy) fitAndPick() {
	s.modelStarted = true
	if s.stall >= surStallLimit {
		s.enterRefine()
		return
	}
	s.model.Fit()
	best, bestEI := -1, 0.0
	p := s.scan
	for idx, seen := range s.observed {
		if seen {
			continue
		}
		s.space.PointAt(p, idx)
		mean, std, ok := s.model.Predict(p)
		if !ok {
			break
		}
		// Strict > keeps the earlier (lexicographically lower) point on
		// ties.
		if ei := surrogate.ExpectedImprovement(mean, std, s.bestF); best < 0 || ei > bestEI {
			best, bestEI = idx, ei
		}
	}
	if best < 0 {
		s.enterRefine()
		return
	}
	if tol := surEITolFrac * (s.yHi - s.yLo); bestEI <= tol {
		s.enterRefine()
		return
	}
	s.want = make(Point, s.space.Dims())
	s.space.PointAt(s.want, best)
}

// enterRefine hands the search to a budget-capped Nelder-Mead around the
// incumbent best. Points the simplex revisits are replayed from the
// session cache, so refinement mostly spends cheap reports, not probes.
func (s *SurrogateStrategy) enterRefine() {
	budget := 3*s.space.Dims() + surRefineEvals
	if rem := s.maxEvals - s.reports; budget > rem {
		budget = rem
	}
	if budget <= 0 || !s.hasBest {
		s.done = true
		return
	}
	s.refine = NewNelderMeadLocal(s.space, s.bestP, budget)
}

var _ Strategy = (*SurrogateStrategy)(nil)
