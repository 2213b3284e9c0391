package harmony

import "math/rand"

// Exhaustive enumerates every lattice point in lexicographic order — the
// search the paper's ARCS-Offline strategy runs during its first
// (unmeasured) execution.
type Exhaustive struct {
	space Space
	next  Point
	cur   Point // the point Next last returned, reused by the next call
	done  bool
}

// NewExhaustive creates an exhaustive search over space.
func NewExhaustive(space Space) *Exhaustive {
	return &Exhaustive{space: space, next: make(Point, space.Dims())}
}

// Name implements Strategy.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Next implements Strategy.
func (e *Exhaustive) Next() (Point, bool) {
	if e.done {
		return nil, false
	}
	e.cur = append(e.cur[:0], e.next...)
	// Advance odometer.
	for i := e.space.Dims() - 1; i >= 0; i-- {
		e.next[i]++
		if e.next[i] < e.space.Params[i].Card {
			break
		}
		e.next[i] = 0
		if i == 0 {
			e.done = true
		}
	}
	return e.cur, true
}

// Report implements Strategy (exhaustive search ignores feedback).
func (e *Exhaustive) Report(Point, float64) {}

// Converged implements Strategy.
func (e *Exhaustive) Converged() bool { return e.done }

// Random samples the space uniformly for a fixed budget of proposals. It
// serves as the naive baseline in the search-strategy ablation.
type Random struct {
	space  Space
	rng    *rand.Rand
	budget int
	drawn  int
}

// NewRandom creates a random search with the given proposal budget.
func NewRandom(space Space, budget int, seed int64) *Random {
	if budget <= 0 {
		budget = space.Size()
	}
	return &Random{space: space, rng: rand.New(rand.NewSource(seed)), budget: budget}
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Next implements Strategy.
func (r *Random) Next() (Point, bool) {
	if r.drawn >= r.budget {
		return nil, false
	}
	r.drawn++
	p := make(Point, r.space.Dims())
	for i, prm := range r.space.Params {
		p[i] = r.rng.Intn(prm.Card)
	}
	return p, true
}

// Report implements Strategy.
func (r *Random) Report(Point, float64) {}

// Converged implements Strategy.
func (r *Random) Converged() bool { return r.drawn >= r.budget }

var (
	_ Strategy = (*Exhaustive)(nil)
	_ Strategy = (*Random)(nil)
)
