package harmony

import (
	"math"
	"math/rand"
)

// PRO implements the Parallel Rank Order search, the other simplex method
// Active Harmony ships. It keeps a simplex of 2d vertices; each round
// reflects every non-best vertex through the best, accepts the
// reflections that improve, and shrinks toward the best when none do. PRO
// was designed for parallel evaluation (the paper picked Harmony because
// multiple configurations can be evaluated in parallel, §III-A); here a
// session evaluates each round's candidates one at a time, and
// parallelism comes from searching several regions at once.
type PRO struct {
	space Space
	rng   *rand.Rand

	verts []nmVertex
	phase proPhase
	idx   int // vertex being initialised / candidate being evaluated

	cands []nmVertex // current round's reflection candidates
	want  []float64

	reports  int
	maxEvals int
	done     bool
}

type proPhase int

const (
	proInit proPhase = iota
	proEval
)

// proShrinkSigma is the shrink coefficient toward the best vertex.
const proShrinkSigma = 0.5

// NewPRO builds a PRO search of 2*dims vertices seeded from start plus
// stratified random spread. maxEvals <= 0 selects a dimension-scaled
// default budget.
func NewPRO(space Space, start Point, maxEvals int, seed int64) *PRO {
	d := space.Dims()
	if maxEvals <= 0 {
		maxEvals = 40 * d
		if s := space.Size(); maxEvals > s {
			maxEvals = s
		}
	}
	p := &PRO{space: space, rng: rand.New(rand.NewSource(seed)), maxEvals: maxEvals}
	start = space.Clamp(start)
	v0 := make([]float64, d)
	for i, s := range start {
		v0[i] = float64(s)
	}
	p.verts = append(p.verts, nmVertex{x: v0})
	n := 2 * d
	if n < 4 {
		n = 4
	}
	for len(p.verts) < n {
		v := make([]float64, d)
		for i, prm := range space.Params {
			v[i] = float64(p.rng.Intn(prm.Card))
		}
		p.verts = append(p.verts, nmVertex{x: v})
	}
	p.want = p.verts[0].x
	return p
}

// Name implements Strategy.
func (p *PRO) Name() string { return "pro" }

// Converged implements Strategy.
func (p *PRO) Converged() bool { return p.done }

// Next implements Strategy.
func (p *PRO) Next() (Point, bool) {
	if p.done {
		return nil, false
	}
	return p.space.round(p.want), true
}

// Report implements Strategy.
func (p *PRO) Report(_ Point, f float64) {
	if p.done {
		return
	}
	p.reports++
	switch p.phase {
	case proInit:
		p.verts[p.idx].f = f
		p.idx++
		if p.idx < len(p.verts) {
			p.want = p.verts[p.idx].x
		} else {
			p.startRound()
		}
	case proEval:
		p.cands[p.idx].f = f
		p.idx++
		if p.idx < len(p.cands) {
			p.want = p.cands[p.idx].x
		} else {
			p.finishRound()
		}
	}
	if p.reports >= p.maxEvals {
		p.done = true
	}
}

// startRound sorts, checks convergence, and builds the reflection batch.
func (p *PRO) startRound() {
	v := p.verts
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].f < v[j-1].f; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	if p.space.collapsed(p.verts) {
		p.done = true
		return
	}
	best := v[0].x
	p.cands = p.cands[:0]
	for i := 1; i < len(v); i++ {
		r := make([]float64, len(best))
		for k := range r {
			r[k] = 2*best[k] - v[i].x[k]
		}
		p.cands = append(p.cands, nmVertex{x: r})
	}
	p.idx = 0
	p.want = p.cands[0].x
	p.phase = proEval
}

// finishRound accepts improving reflections or shrinks toward the best.
func (p *PRO) finishRound() {
	improved := false
	for i := 1; i < len(p.verts); i++ {
		c := p.cands[i-1]
		if c.f < p.verts[i].f {
			p.verts[i] = nmVertex{x: append([]float64(nil), c.x...), f: c.f}
			improved = true
		}
	}
	if !improved {
		best := p.verts[0].x
		for i := 1; i < len(p.verts); i++ {
			for k := range p.verts[i].x {
				p.verts[i].x[k] = best[k] + proShrinkSigma*(p.verts[i].x[k]-best[k])
			}
			// Shrunk vertices need re-evaluation; reuse the eval machinery
			// by treating them as the next candidate round.
		}
		p.cands = p.cands[:0]
		for i := 1; i < len(p.verts); i++ {
			p.cands = append(p.cands, nmVertex{x: append([]float64(nil), p.verts[i].x...)})
		}
		p.idx = 0
		p.want = p.cands[0].x
		p.phase = proEval
		// Mark the shrink by replacing vertex values when the batch lands:
		// finishRound will accept them unconditionally because shrunk
		// candidates overwrite stale f values via the < comparison against
		// +Inf sentinels.
		for i := 1; i < len(p.verts); i++ {
			p.verts[i].f = math.Inf(1)
		}
		return
	}
	p.startRound()
}

var _ Strategy = (*PRO)(nil)
