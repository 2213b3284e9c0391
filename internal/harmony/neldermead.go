package harmony

import "math"

// NelderMead is the simplex search Active Harmony provides and the paper's
// ARCS-Online strategy uses. It runs the classic reflect/expand/contract/
// shrink recurrence over the continuous index space and evaluates at the
// nearest lattice point; the surrounding Session replays cached values when
// two continuous candidates round to the same configuration, so the state
// machine never stalls on duplicates.
type NelderMead struct {
	space Space

	simplex []nmVertex
	phase   nmPhase
	initIdx int
	shrIdx  int

	want []float64 // continuous candidate whose evaluation is pending

	// Reflection bookkeeping for the current iteration.
	centroid []float64
	xr       []float64
	fr       float64
	xe       []float64
	xc       []float64

	reports  int
	maxEvals int
	done     bool
}

type nmVertex struct {
	x []float64
	f float64
}

type nmPhase int

const (
	nmInit nmPhase = iota
	nmReflect
	nmExpand
	nmContractOut
	nmContractIn
	nmShrink
)

// Nelder-Mead coefficients (standard values).
const (
	nmAlpha = 1.0 // reflection
	nmGamma = 2.0 // expansion
	nmRho   = 0.5 // contraction
	nmSigma = 0.5 // shrink
)

// NewNelderMead builds a simplex search starting from the given lattice
// point (ARCS seeds it with the default configuration). maxEvals bounds the
// number of reported evaluations; <=0 selects a dimension-scaled default.
func NewNelderMead(space Space, start Point, maxEvals int) *NelderMead {
	return newNelderMead(space, start, maxEvals, 0.35)
}

// NewNelderMeadLocal builds a refinement simplex: initial offsets of one
// lattice step per dimension instead of the global-search 35%-of-span
// spread. The surrogate strategy uses it to polish the model's incumbent.
func NewNelderMeadLocal(space Space, start Point, maxEvals int) *NelderMead {
	return newNelderMead(space, start, maxEvals, 0)
}

// newNelderMead spreads the initial simplex by stepFrac of each
// dimension's span (at least one lattice step).
func newNelderMead(space Space, start Point, maxEvals int, stepFrac float64) *NelderMead {
	d := space.Dims()
	if maxEvals <= 0 {
		maxEvals = 30 * d
		if s := space.Size(); maxEvals > s {
			maxEvals = s
		}
	}
	nm := &NelderMead{space: space, maxEvals: maxEvals}
	start = space.Clamp(start)
	v0 := make([]float64, d)
	for i, s := range start {
		v0[i] = float64(s)
	}
	nm.simplex = append(nm.simplex, nmVertex{x: v0})
	for i := 0; i < d; i++ {
		v := append([]float64(nil), v0...)
		span := float64(space.Params[i].Card - 1)
		step := math.Max(1, stepFrac*span)
		if v[i]+step > span { // reflect the offset to stay in range
			v[i] -= step
		} else {
			v[i] += step
		}
		if v[i] < 0 {
			v[i] = 0
		}
		nm.simplex = append(nm.simplex, nmVertex{x: v})
	}
	nm.want = nm.simplex[0].x
	return nm
}

// Name implements Strategy.
func (nm *NelderMead) Name() string { return "nelder-mead" }

// Converged implements Strategy.
func (nm *NelderMead) Converged() bool { return nm.done }

// Next implements Strategy.
func (nm *NelderMead) Next() (Point, bool) {
	if nm.done {
		return nil, false
	}
	return nm.space.round(nm.want), true
}

// Report implements Strategy.
func (nm *NelderMead) Report(_ Point, f float64) {
	if nm.done {
		return
	}
	nm.reports++
	switch nm.phase {
	case nmInit:
		nm.simplex[nm.initIdx].f = f
		nm.initIdx++
		if nm.initIdx < len(nm.simplex) {
			nm.want = nm.simplex[nm.initIdx].x
		} else {
			nm.beginIteration()
		}
	case nmReflect:
		nm.fr = f
		d := len(nm.simplex) - 1
		switch {
		case f < nm.simplex[0].f:
			// Best so far: try expanding further.
			nm.xe = combine(nm.centroid, nm.xr, nmGamma)
			nm.want = nm.xe
			nm.phase = nmExpand
		case f < nm.simplex[d-1].f:
			nm.replaceWorst(nm.xr, f)
			nm.beginIteration()
		case f < nm.simplex[d].f:
			nm.xc = combine(nm.centroid, nm.xr, nmRho)
			nm.want = nm.xc
			nm.phase = nmContractOut
		default:
			nm.xc = combine(nm.centroid, nm.simplex[d].x, nmRho)
			nm.want = nm.xc
			nm.phase = nmContractIn
		}
	case nmExpand:
		if f < nm.fr {
			nm.replaceWorst(nm.xe, f)
		} else {
			nm.replaceWorst(nm.xr, nm.fr)
		}
		nm.beginIteration()
	case nmContractOut:
		if f <= nm.fr {
			nm.replaceWorst(nm.xc, f)
			nm.beginIteration()
		} else {
			nm.startShrink()
		}
	case nmContractIn:
		if f < nm.simplex[len(nm.simplex)-1].f {
			nm.replaceWorst(nm.xc, f)
			nm.beginIteration()
		} else {
			nm.startShrink()
		}
	case nmShrink:
		nm.simplex[nm.shrIdx].f = f
		nm.shrIdx++
		if nm.shrIdx < len(nm.simplex) {
			nm.want = nm.simplex[nm.shrIdx].x
		} else {
			nm.beginIteration()
		}
	}
	if nm.reports >= nm.maxEvals {
		nm.done = true
	}
}

// beginIteration reorders the simplex, checks convergence, and arms the
// next reflection.
func (nm *NelderMead) beginIteration() {
	// Insertion sort by f (simplex is tiny).
	s := nm.simplex
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].f < s[j-1].f; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if nm.space.collapsed(nm.simplex) {
		nm.done = true
		return
	}
	d := len(s) - 1
	c := make([]float64, nm.space.Dims())
	for i := 0; i < d; i++ {
		for k := range c {
			c[k] += s[i].x[k]
		}
	}
	for k := range c {
		c[k] /= float64(d)
	}
	nm.centroid = c
	nm.xr = combine(c, s[d].x, -nmAlpha)
	nm.want = nm.xr
	nm.phase = nmReflect
}

func (nm *NelderMead) startShrink() {
	s := nm.simplex
	for i := 1; i < len(s); i++ {
		for k := range s[i].x {
			s[i].x[k] = s[0].x[k] + nmSigma*(s[i].x[k]-s[0].x[k])
		}
	}
	nm.shrIdx = 1
	nm.want = s[1].x
	nm.phase = nmShrink
}

func (nm *NelderMead) replaceWorst(x []float64, f float64) {
	nm.simplex[len(nm.simplex)-1] = nmVertex{x: append([]float64(nil), x...), f: f}
}

// collapsed reports whether every vertex rounds to the same lattice point.
func (s Space) collapsed(verts []nmVertex) bool {
	first := s.round(verts[0].x)
	for _, v := range verts[1:] {
		if !s.round(v.x).Equal(first) {
			return false
		}
	}
	return true
}

// round maps a continuous coordinate vector to the nearest lattice point.
func (s Space) round(x []float64) Point {
	p := make(Point, len(x))
	for i, v := range x {
		p[i] = int(math.Round(v))
	}
	return s.clampInto(p, p)
}

// combine returns c + coef*(x - c): coef -1 reflects x through c, +2
// expands past the reflection, +0.5 contracts toward c.
func combine(c, x []float64, coef float64) []float64 {
	out := make([]float64, len(c))
	for i := range c {
		out[i] = c[i] + coef*(x[i]-c[i])
	}
	return out
}

var _ Strategy = (*NelderMead)(nil)
