package harmony

// CoordinateDescent is a greedy axis-sweep search (the "orthogonal
// line-search" many autotuners ship): starting from a seed point it sweeps
// one parameter at a time over its full value set, fixes the best value,
// moves to the next parameter, and repeats until a full pass makes no
// improvement or the evaluation budget runs out. On the ARCS space it
// costs at most passes * (sum of cardinalities) evaluations — more than
// Nelder-Mead, far less than exhaustive — and cannot exploit parameter
// interactions (thread count and chunk size interact strongly here), which
// is exactly what the search-strategy ablation demonstrates.
type CoordinateDescent struct {
	space Space

	current  Point
	bestPerf float64
	hasBest  bool

	dim      int // parameter currently being swept
	idx      int // candidate value index within the sweep
	improved bool

	want Point

	reports  int
	maxEvals int
	done     bool
}

// NewCoordinateDescent builds the search starting from start. maxEvals <= 0
// selects three full passes over the space's axes.
func NewCoordinateDescent(space Space, start Point, maxEvals int) *CoordinateDescent {
	if maxEvals <= 0 {
		sum := 0
		for _, p := range space.Params {
			sum += p.Card
		}
		maxEvals = 3 * sum
	}
	cd := &CoordinateDescent{
		space:    space,
		current:  space.Clamp(start),
		maxEvals: maxEvals,
	}
	cd.want = cd.current.Clone()
	cd.want[0] = 0 // begin by sweeping dimension 0 from its first value
	return cd
}

// Name implements Strategy.
func (cd *CoordinateDescent) Name() string { return "coordinate-descent" }

// Converged implements Strategy.
func (cd *CoordinateDescent) Converged() bool { return cd.done }

// Next implements Strategy.
func (cd *CoordinateDescent) Next() (Point, bool) {
	if cd.done {
		return nil, false
	}
	return cd.want.Clone(), true
}

// Report implements Strategy.
func (cd *CoordinateDescent) Report(p Point, perf float64) {
	if cd.done {
		return
	}
	cd.reports++
	if !cd.hasBest || perf < cd.bestPerf {
		cd.bestPerf = perf
		cd.hasBest = true
		if !p.Equal(cd.current) {
			cd.current = p.Clone()
			cd.improved = true
		}
	}
	if cd.reports >= cd.maxEvals {
		cd.done = true
		return
	}
	cd.advance()
}

// advance moves to the next candidate: next value on this axis, next axis,
// or (if a whole pass improved nothing) convergence.
func (cd *CoordinateDescent) advance() {
	cd.idx++
	for cd.idx >= cd.space.Params[cd.dim].Card {
		cd.idx = 0
		cd.dim++
		if cd.dim >= cd.space.Dims() {
			cd.dim = 0
			if !cd.improved {
				cd.done = true
				return
			}
			cd.improved = false
		}
	}
	cd.want = cd.current.Clone()
	cd.want[cd.dim] = cd.idx
}

var _ Strategy = (*CoordinateDescent)(nil)
