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

// NextBatch implements Strategy: the upcoming enumeration window,
// read ahead from a copy of the odometer so the serial stream is
// untouched.
func (e *Exhaustive) NextBatch(max int) []Point {
	if e.done || max < 1 {
		return nil
	}
	cur := e.next.Clone()
	out := make([]Point, 0, max)
	for len(out) < max {
		out = append(out, cur.Clone())
		carry := true
		for i := e.space.Dims() - 1; i >= 0; i-- {
			cur[i]++
			if cur[i] < e.space.Params[i].Card {
				carry = false
				break
			}
			cur[i] = 0
		}
		if carry {
			break // wrapped: the window reached the end of the lattice
		}
	}
	return out
}

// Random samples the space uniformly for a fixed budget of proposals. It
// serves as the naive baseline in the search-strategy ablation.
type Random struct {
	space  Space
	rng    *rand.Rand
	budget int
	drawn  int

	// queue holds proposals pre-drawn by NextBatch; Next serves them
	// before touching the RNG again, so the emitted stream is identical
	// whether or not batching is used.
	queue []Point
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
	if len(r.queue) > 0 {
		p := r.queue[0]
		r.queue = r.queue[1:]
		return p, true
	}
	return r.draw(), true
}

// draw samples one fresh uniform proposal.
func (r *Random) draw() Point {
	p := make(Point, r.space.Dims())
	for i, prm := range r.space.Params {
		p[i] = r.rng.Intn(prm.Card)
	}
	return p
}

// Report implements Strategy.
func (r *Random) Report(Point, float64) {}

// Converged implements Strategy.
func (r *Random) Converged() bool { return r.drawn >= r.budget }

// NextBatch implements Strategy: pre-draws up to max proposals
// (bounded by the remaining budget) into the queue Next serves from, so
// batching never perturbs the RNG stream.
func (r *Random) NextBatch(max int) []Point {
	remaining := r.budget - r.drawn
	if remaining <= 0 || max < 1 {
		return nil
	}
	if max > remaining {
		max = remaining
	}
	for len(r.queue) < max {
		r.queue = append(r.queue, r.draw())
	}
	out := make([]Point, 0, max)
	for _, p := range r.queue[:max] {
		out = append(out, p.Clone())
	}
	return out
}

var (
	_ Strategy = (*Exhaustive)(nil)
	_ Strategy = (*Random)(nil)
)
