package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// linearArgmin is the dispatcher the run queue must agree with: a scan for
// the earliest-idle thread, ties to the lower id.
func linearArgmin(avail []float64) int {
	best := 0
	for i, a := range avail {
		if a < avail[best] {
			best = i
		}
	}
	return best
}

// checkQueue requires q's window to hold every thread once, in (avail, id)
// order, and its winner to be the linear scan's.
func checkQueue(t *testing.T, q *runQueue, what string) {
	t.Helper()
	win := q.q[q.head:q.tail]
	seen := make([]bool, len(q.avail))
	for k, e := range win {
		id := e.id
		if seen[id] {
			t.Fatalf("%s: thread %d queued twice: %v", what, id, win)
		}
		seen[id] = true
		if k > 0 {
			p := win[k-1].id
			if a, b := q.avail[p], q.avail[id]; a > b || (a == b && p > id) {
				t.Fatalf("%s: thread %d queued before %d: %v (avail %v)", what, p, id, win, q.avail)
			}
		}
	}
	if len(win) != len(q.avail) {
		t.Fatalf("%s: %d threads queued, want %d: %v", what, len(win), len(q.avail), win)
	}
	if got, want := q.winner(), linearArgmin(q.avail); got != want {
		t.Fatalf("%s: winner %d, linear scan %d (avail %v)", what, got, want, q.avail)
	}
}

// TestRunQueueMatchesLinearScan replays random advances on teams of
// several sizes, drawing times and costs from a few values so that ties are
// frequent, and checks the queue's order and winner after every
// reinsertion. 40 advances per thread move the window back to the
// buffer's start many times.
func TestRunQueueMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 31, 32, 33, 160} {
		for trial := 0; trial < 20; trial++ {
			avail := make([]float64, n)
			for i := range avail {
				avail[i] = float64(rng.Intn(3)) * 0.5
			}
			var q runQueue
			q.init(avail)
			for step := 0; step < 40*n; step++ {
				checkQueue(t, &q, fmt.Sprintf("T=%d trial %d step %d", n, trial, step))
				q.advance(float64(rng.Intn(3)) * 0.25) // 0 keeps the winner's time: a tie with itself
			}
		}
	}
}

// TestRunQueueReinsertsEverywhere moves the winner to every place in the
// queue: the head (an advance of 0), the tail, and between every two
// threads, landing on each one's time exactly (a tie decided by the ids)
// and just past it. Every thread in turn is the winner, so each tie is met
// against both lower and higher ids.
func TestRunQueueReinsertsEverywhere(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 33} {
		for w := 0; w < n; w++ {
			// The winner idles at 0; the others at 1, 2, …, n-1 in an
			// order that interleaves low and high ids (7 is prime to
			// every n here).
			base := make([]float64, n)
			others := 0
			for i := range base {
				if i != w {
					others++
					base[i] = float64((others * 7) % n)
				}
			}
			targets := []float64{0, float64(n) + 1}
			for k := 1; k <= n; k++ {
				targets = append(targets, float64(k), float64(k)+0.5)
			}
			for _, c := range targets {
				avail := append([]float64(nil), base...)
				var q runQueue
				q.init(avail)
				what := fmt.Sprintf("T=%d winner %d advanced by %g", n, w, c)
				checkQueue(t, &q, what+" (before)")
				q.advance(c)
				checkQueue(t, &q, what)
			}
		}
	}
}

// TestDispatchMatchesLinearScanOnTies runs the dispatch loop on inputs
// whose every time and cost is a small integer, so threads tie on their
// next-idle times often and in every id order, and requires the same
// chunks, times and totals as the loop gives when linearArgmin picks each
// winner through the argmin seam. Ties reach the inline tail append, which
// the seam never takes. Each cost form runs: weighted, uniform and the
// guided decay phase's.
func TestDispatchMatchesLinearScanOnTies(t *testing.T) {
	type dispatched struct {
		Busy, Finish []float64
		Left, Chunks int
		DispatchS    float64
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8, 33} {
		for _, form := range []string{"weighted", "uniform", "decay"} {
			for trial := 0; trial < 10; trial++ {
				iters := 40*n + rng.Intn(50)
				l := chunkLoop{threads: n, chunk: 1 + rng.Intn(3), guided: form == "decay" || rng.Intn(2) == 0,
					decay: form == "decay", dS: float64(rng.Intn(2)), iterS: 1, iterNS: make([]float64, n)}
				if form == "weighted" {
					l.prefix = make([]float64, iters+1)
					for i := 1; i <= iters; i++ {
						l.prefix[i] = l.prefix[i-1] + float64(1+rng.Intn(3))
					}
				}
				start := make([]float64, n)
				for i := range start {
					l.iterNS[i] = float64(1+rng.Intn(2)) * 1e9 // a cost of w·iterNS·1e-9 rounds to the integer 1 or 2·w
					start[i] = float64(rng.Intn(3))
				}
				run := func(argmin func([]float64) int) dispatched {
					q := runQueue{argmin: argmin}
					lc := l
					d := dispatched{Busy: make([]float64, n), Finish: append([]float64(nil), start...)}
					d.Left = q.dispatch(d.Busy, d.Finish, &lc, 0, iters)
					d.Chunks, d.DispatchS = lc.chunks, lc.dispatchS
					return d
				}
				if got, want := run(nil), run(linearArgmin); !reflect.DeepEqual(got, want) {
					t.Fatalf("T=%d %s trial %d (chunk %d, guided %v, dS %g): queue %+v\nlinear scan %+v",
						n, form, trial, l.chunk, l.guided, l.dS, got, want)
				}
			}
		}
	}
}

// loserTree is a frozen copy of the dispatcher the run queue replaced: a
// tournament tree over the team's next-idle times, ordered by before. Each
// internal node keeps the loser of the match played there and node[0] the
// overall winner. The team is padded to a power of two with +Inf leaves
// whose ids exceed every thread's. Its advance(c) is advanceTo(the
// winner's time + c), the operation the queue performs.
type loserTree struct {
	avail []float64
	node  []threadState
}

type threadState struct {
	avail float64
	id    int
}

func (a threadState) before(b threadState) bool {
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	return a.id < b.id
}

func (lt *loserTree) init(avail []float64) {
	lt.avail = avail
	p := 1
	for p < len(avail) {
		p <<= 1
	}
	if cap(lt.node) < 2*p {
		lt.node = make([]threadState, 2*p)
	}
	nd := lt.node[:2*p]
	lt.node = nd
	for i := 0; i < p; i++ {
		a := math.Inf(1)
		if i < len(avail) {
			a = avail[i]
		}
		nd[p+i] = threadState{avail: a, id: i}
	}
	for n := p - 1; n >= 1; n-- {
		a, b := nd[2*n], nd[2*n+1]
		if b.before(a) {
			a = b
		}
		nd[n] = a
	}
	nd[0] = nd[1]
	for n := 1; n < p; n++ {
		if nd[2*n].id == nd[n].id {
			nd[n] = nd[2*n+1]
		} else {
			nd[n] = nd[2*n]
		}
	}
}

func (lt *loserTree) winner() int { return lt.node[0].id }

func (lt *loserTree) advanceTo(a float64) {
	w := lt.node[0]
	w.avail = a
	lt.avail[w.id] = w.avail
	for n := (len(lt.node)/2 + w.id) >> 1; n > 0; n >>= 1 {
		if l := lt.node[n]; l.before(w) {
			lt.node[n], w = w, l
		}
	}
	lt.node[0] = w
}

// treeArgmin drives the frozen loserTree from the run queue's argmin hook.
// It keeps its own copy of the team's times; when only the tree's winner
// has moved since the last call it replays the winner's path, as the tree
// did per chunk, and otherwise (a new simulation or phase) it rebuilds.
type treeArgmin struct {
	lt              loserTree
	seen            []float64
	inits, advances int
}

func (o *treeArgmin) argmin(avail []float64) int {
	moved := -1
	rebuild := len(o.seen) != len(avail)
	for i := 0; !rebuild && i < len(avail); i++ {
		if math.Float64bits(avail[i]) != math.Float64bits(o.seen[i]) {
			rebuild = moved >= 0 || i != o.lt.winner()
			moved = i
		}
	}
	switch {
	case rebuild:
		o.seen = append(o.seen[:0], avail...)
		o.lt.init(o.seen)
		o.inits++
	case moved >= 0:
		o.lt.advanceTo(avail[moved])
		o.advances++
	}
	return o.lt.winner()
}

// TestRunQueueMatchesLoserTree holds every dynamic and guided probe to a
// machine whose winners come from a frozen copy of the loser tree the run
// queue replaced, and requires identical results, per-thread slices
// included: both give every chunk to the same thread, so every float is
// summed in the same order. Crill runs its teams at three caps; the teams
// that only fit on Minotaur run there uncapped.
func TestRunQueueMatchesLoserTree(t *testing.T) {
	kinds := []Imbalance{
		{Kind: Uniform},
		{Kind: Ramp, Param: 1.2},
		{Kind: Blocks, Param: 4, Blocks: 3},
		{Kind: Sawtooth, Param: 1.0, Blocks: 4},
		{Kind: Random, Param: 0.6, Seed: 5},
		{Kind: Random, Param: 2.5, Seed: 7},
	}
	var oracle treeArgmin
	for _, run := range []struct {
		arch  *Arch
		teams []int
		caps  []float64
	}{
		{Crill(), []int{1, 3, 24, 32}, []float64{0, 55, 85}},
		{Minotaur(), []int{33, 160}, []float64{0}},
	} {
		queue, err := NewMachine(run.arch)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := NewMachine(run.arch)
		if err != nil {
			t.Fatal(err)
		}
		tree.scratch.queue.argmin = oracle.argmin
		for _, capW := range run.caps {
			for _, m := range []*Machine{queue, tree} {
				if err := m.SetPowerCap(capW); err != nil {
					t.Fatal(err)
				}
			}
			for _, im := range kinds {
				lm := &LoopModel{Name: "tree", Iters: 3001, CompNSPerIter: 9000, SerialNS: 20000,
					Imbalance: im, Mem: benchLoop(1).Mem}
				for _, th := range run.teams {
					for _, sched := range []Schedule{SchedDynamic, SchedGuided} {
						for _, chunk := range []int{0, 1, 7, 64} {
							cfg := Config{Threads: th, Sched: sched, Chunk: chunk}
							got := probe(t, queue, lm, cfg)
							want := probe(t, tree, lm, cfg)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s cap %g %v %g %v: queue %+v\nloser tree %+v",
									run.arch.Name, capW, im.Kind, im.Param, cfg, got, want)
							}
						}
					}
				}
			}
		}
	}
	if oracle.advances < 100*oracle.inits {
		t.Fatalf("the tree replayed %d winners over %d builds: its per-chunk path went untested",
			oracle.advances, oracle.inits)
	}
}

// TestProbeMatchesLinearScanDispatcher runs every weighted pattern under
// every schedule through ProbeLoop twice, once on a machine whose dispatcher
// is replaced by linearArgmin, and requires identical results: the tree
// gives every chunk to the same thread, so every float is accumulated in
// the same order. A rigged dispatcher at the end shows the replacement
// takes effect.
func TestProbeMatchesLinearScanDispatcher(t *testing.T) {
	kinds := []Imbalance{
		{Kind: Uniform},
		{Kind: Ramp, Param: 1.2},
		{Kind: Blocks, Param: 4, Blocks: 3},
		{Kind: Random, Param: 0.6, Seed: 5},
		{Kind: Sawtooth, Param: 1.0, Blocks: 4},
	}
	for _, arch := range []*Arch{Crill(), Minotaur()} {
		tree, err := NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		scan.scratch.queue.argmin = linearArgmin
		caps := []float64{0}
		if arch.CanCap {
			caps = []float64{0, 55, 85}
		}
		threads := []int{1, 3, arch.Cores(), arch.Cores() + arch.Cores()/2, arch.HWThreads()}
		for _, capW := range caps {
			for _, m := range []*Machine{tree, scan} {
				if err := m.SetPowerCap(capW); err != nil {
					t.Fatal(err)
				}
			}
			for _, im := range kinds {
				lm := &LoopModel{Name: "scan", Iters: 3001, CompNSPerIter: 9000, SerialNS: 20000,
					Imbalance: im, Mem: benchLoop(1).Mem}
				for _, sched := range []Schedule{SchedStatic, SchedDynamic, SchedGuided} {
					for _, chunk := range []int{0, 1, 7, 64} {
						for _, th := range threads {
							cfg := Config{Threads: th, Sched: sched, Chunk: chunk, Bind: BindPolicy(th % 2)}
							got := probe(t, tree, lm, cfg)
							want := probe(t, scan, lm, cfg)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s cap %g %v %v: tree %+v\nlinear scan %+v",
									arch.Name, capW, im.Kind, cfg, got, want)
							}
						}
					}
				}
			}
		}
	}
	m, rigged := newCrill(t), newCrill(t)
	rigged.scratch.queue.argmin = func([]float64) int { return 0 }
	cfg := Config{Threads: 8, Sched: SchedDynamic, Chunk: 4}
	if reflect.DeepEqual(probe(t, rigged, rampLoop(), cfg), probe(t, m, rampLoop(), cfg)) {
		t.Fatal("replacing the dispatcher did not change the dispatch")
	}
}

// roundRobin is a frozen copy of the chunk-major static loop the
// thread-major one replaced: chunk k of size chunk (the last one possibly
// smaller) goes to thread k mod t, and each chunk's cost is added to the
// thread's finish and busy times as the chunk comes up. It returns the
// chunks dispatched.
func roundRobin(finish, busy, iterNS, prefix []float64, iters, chunk int) int {
	t := len(finish)
	chunks := 0
	for pos, tid := 0, 0; pos < iters; {
		hi := min(pos+chunk, iters)
		c := (prefix[hi] - prefix[pos]) * iterNS[tid] * 1e-9
		finish[tid] += c
		busy[tid] += c
		pos = hi
		chunks++
		if tid++; tid == t {
			tid = 0
		}
	}
	return chunks
}

// TestStaticMatchesRoundRobin holds every non-uniform static probe to the
// frozen chunk-major loop, bit for bit: the per-thread busy times ProbeLoop
// returns, the finish times it leaves in the machine's scratch and the
// chunk count must equal the oracle's, run from the same fork times and
// per-thread iteration costs. Every weight kind that reaches the loop runs
// on every team of Crill and Minotaur under both bindings, with chunks
// that leave threads without a chunk (Iters below t·chunk) and that do
// not divide Iters. (Uniform weights take the closed form instead.)
func TestStaticMatchesRoundRobin(t *testing.T) {
	kinds := []Imbalance{
		{Kind: Ramp, Param: 1.2},
		{Kind: Blocks, Param: 4, Blocks: 3},
		{Kind: Random, Param: 0.6, Seed: 5},
		{Kind: Sawtooth, Param: 1.0, Blocks: 4},
	}
	type dispatched struct {
		Busy, Finish []float64
		Chunks       int
	}
	for _, arch := range []*Arch{Crill(), Minotaur()} {
		m, err := NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, iters := range []int{50, 3001} {
			for _, im := range kinds {
				lm := &LoopModel{Name: "static", Iters: iters, CompNSPerIter: 9000, SerialNS: 20000,
					Imbalance: im, Mem: benchLoop(1).Mem}
				for th := 1; th <= arch.HWThreads(); th++ {
					for _, bind := range []BindPolicy{BindSpread, BindClose} {
						for _, chunk := range []int{1, 7, 64, iters} {
							cfg := Config{Threads: th, Sched: SchedStatic, Chunk: chunk, Bind: bind}
							res := probe(t, m, lm, cfg)
							got := dispatched{res.PerThreadBusyS, m.scratch.finish, res.Chunks}
							want := dispatched{Busy: make([]float64, th), Finish: make([]float64, th)}
							for i := range want.Finish {
								want.Finish[i] = (arch.ForkBaseUS + arch.ForkStaggerUS*float64(i)) * 1e-6
							}
							want.Chunks = roundRobin(want.Finish, want.Busy, m.scratch.iterNS, lm.prefix, iters, chunk)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s Iters %d %v %v: thread-major %+v\nchunk-major %+v",
									arch.Name, iters, im.Kind, cfg, got, want)
							}
						}
					}
				}
			}
		}
	}
}
