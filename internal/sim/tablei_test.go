package sim_test

import (
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/harmony"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

// TestTableISweepSimulatesEachConfigOnce runs the offline search's sweep
// of one region, as ARCS-Offline does: harmony.Exhaustive's odometer over
// the arch's Table I space, each point decoded and passed through
// omp.Resolve, all on one Machine. The region simulates each distinct
// resolved configuration exactly once; every other point is an alias the
// probe table catches. The region's size makes the static default chunk
// at every Table I team size a chunk Table I does not list, so each thread
// block holds 25 distinct configurations and the all-threads block's
// first alias (dynamic chunk 1) lies 24 distinct probes after its twin:
// a table of 24 entries misses it.
func TestTableISweepSimulatesEachConfigOnce(t *testing.T) {
	lm := &sim.LoopModel{
		Name: "sweep", Iters: 10404, CompNSPerIter: 15000,
		Imbalance: sim.Imbalance{Kind: sim.Ramp, Param: 0.8},
		Mem: sim.CacheSpec{
			AccessesPerIter: 4000, BytesPerIter: 8192, TemporalWindowKB: 600, FootprintMB: 250,
			BoundaryLines: 64, PassesPerChunk: 3, L3Contention: 0.9, MLP: 2,
		},
	}
	for _, arch := range []*sim.Arch{sim.Crill(), sim.Minotaur()} {
		ss := arcs.TableISpace(arch)
		hs, err := ss.HarmonySpace()
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[sim.Config]bool{}
		points, sims := 0, 0
		ex := harmony.NewExhaustive(hs)
		for p, ok := ex.Next(); ok; p, ok = ex.Next() {
			cv, err := ss.Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := omp.Resolve(arch, omp.ICV{NumThreads: cv.Threads, Schedule: cv.Schedule, Chunk: cv.Chunk})
			_, simulated, err := sim.ProbeCounted(m, lm, cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", arch.Name, cfg, err)
			}
			cfg.Chunk = sim.ResolveChunk(cfg.Sched, cfg.Chunk, lm.Iters, cfg.Threads)
			if simulated == distinct[cfg] {
				t.Errorf("%s point %d (%v, %v, chunk %d) resolves to %v: simulated %v, seen before %v",
					arch.Name, points, cv.Threads, cv.Schedule, cv.Chunk, cfg, simulated, distinct[cfg])
			}
			distinct[cfg] = true
			points++
			if simulated {
				sims++
			}
		}
		if points != 252 || sims != len(distinct) || sims != 150 {
			t.Errorf("%s: %d points, %d simulated, %d distinct; want 252, 150, 150",
				arch.Name, points, sims, len(distinct))
		}
	}
}
