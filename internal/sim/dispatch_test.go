package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// linearArgmin is the dispatcher the loser tree must agree with: a scan for
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

// TestLoserTreeMatchesLinearScan replays random advances on teams of every
// shape the tree pads differently, drawing times and costs from a few
// values so that ties are frequent, and checks the winner against a linear
// scan after every replay.
func TestLoserTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 31, 32, 33, 160} {
		for trial := 0; trial < 20; trial++ {
			avail := make([]float64, n)
			for i := range avail {
				avail[i] = float64(rng.Intn(3)) * 0.5
			}
			var lt loserTree
			lt.init(avail)
			for step := 0; step < 40*n; step++ {
				if got, want := lt.winner(), linearArgmin(avail); got != want {
					t.Fatalf("T=%d trial %d step %d: winner %d, linear scan %d (avail %v)",
						n, trial, step, got, want, avail)
				}
				lt.advance(float64(rng.Intn(3)) * 0.25) // 0 keeps the winner's time: a tie with itself
			}
		}
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
		scan.scratch.tree.argmin = linearArgmin
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
	rigged.scratch.tree.argmin = func([]float64) int { return 0 }
	cfg := Config{Threads: 8, Sched: SchedDynamic, Chunk: 4}
	if reflect.DeepEqual(probe(t, rigged, rampLoop(), cfg), probe(t, m, rampLoop(), cfg)) {
		t.Fatal("replacing the dispatcher did not change the dispatch")
	}
}
