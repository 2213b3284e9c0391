package sim

import (
	"strconv"
	"testing"
)

// Micro-benchmarks for the simulator hot paths: one region execution under
// each scheduling policy, at NPB-like and LULESH-like iteration counts.
// These bound the cost of the experiment harness (an offline search is
// ~250 of these per region). Each iteration simulates afresh through
// probeFresh, so the dispatcher is timed rather than the machine's probe
// table; BenchmarkProbeRepeat times the table's hit path and
// BenchmarkProbeTableISweep counts the simulations a sweep pays.

func benchLoopKind(iters int, kind ImbalanceKind) *LoopModel {
	im := Imbalance{Kind: kind}
	if kind == Ramp {
		im.Param = 0.8
	}
	return &LoopModel{
		Name:          "bench",
		Iters:         iters,
		CompNSPerIter: 15000,
		Imbalance:     im,
		Mem: CacheSpec{
			AccessesPerIter:  4000,
			BytesPerIter:     8192,
			TemporalWindowKB: 600,
			FootprintMB:      250,
			BoundaryLines:    64,
			PassesPerChunk:   3,
			L3Contention:     0.9,
			MLP:              2,
		},
	}
}

func benchLoop(iters int) *LoopModel { return benchLoopKind(iters, Ramp) }

// probeFresh is ProbeLoop without the probe table: it simulates lm under
// cfg, as given, into e and returns the result as ProbeLoop would.
func probeFresh(m *Machine, lm *LoopModel, cfg Config, e *probeMemo) (ExecResult, error) {
	if err := m.simulate(lm, cfg, e); err != nil {
		return ExecResult{}, err
	}
	return m.result(e, m.noiseFactor(), lm.Iters), nil
}

var benchSink ExecResult

func benchProbe(b *testing.B, iters int, cfg Config) {
	b.Helper()
	m, err := NewMachine(Crill())
	if err != nil {
		b.Fatal(err)
	}
	lm := benchLoop(iters)
	lm.BuildPrefix() // exclude the one-time prefix-sum build
	var e probeMemo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := probeFresh(m, lm, cfg, &e)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkProbeStaticNPB(b *testing.B) {
	benchProbe(b, 10404, Config{Threads: 32, Sched: SchedStatic})
}

func BenchmarkProbeDynamicChunk1NPB(b *testing.B) {
	benchProbe(b, 10404, Config{Threads: 32, Sched: SchedDynamic, Chunk: 1})
}

func BenchmarkProbeGuidedNPB(b *testing.B) {
	benchProbe(b, 10404, Config{Threads: 32, Sched: SchedGuided, Chunk: 1})
}

func BenchmarkProbeDynamicLULESH(b *testing.B) {
	benchProbe(b, 91125, Config{Threads: 32, Sched: SchedDynamic, Chunk: 1})
}

// BenchmarkProbeRepeat probes one region under one configuration again and
// again, as the paper's three runs per arm and a converged region do: every
// iteration after the first is a probe-table hit, paying only the noise
// draw and the copy of the per-thread times into the machine's buffer.
func BenchmarkProbeRepeat(b *testing.B) {
	m, err := NewMachine(Crill())
	if err != nil {
		b.Fatal(err)
	}
	m.SetNoise(0.02, 1)
	lm := benchLoop(10404)
	cfg := Config{Threads: 32, Sched: SchedDynamic, Chunk: 1}
	if _, err := m.ProbeLoop(lm, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.ProbeLoop(lm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkProbeTableISweep sweeps one Ramp region at NPB scale over
// Crill's 252 Table I points, resolved as omp.Resolve does, in the offline
// search's odometer order on one Machine, and reports the simulations the
// sweep paid (sims/op): 150, one per distinct resolved configuration,
// since the region's probe table holds every alias's twin (see
// probeTableCap).
func BenchmarkProbeTableISweep(b *testing.B) {
	points := tableI(Crill())
	lm := benchLoop(10404)
	lm.BuildPrefix() // exclude the one-time prefix-sum build
	sims := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(Crill())
		if err != nil {
			b.Fatal(err)
		}
		m.SetNoise(0.02, 1)
		for _, cfg := range points {
			r, sim := probeCounted(b, m, lm, cfg)
			if sim {
				sims++
			}
			benchSink = r
		}
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkProbeGrid covers the full {schedule} × {chunk} × {weight kind}
// matrix at NPB scale. The Uniform rows hit the closed-form/batched fast
// paths; the Ramp rows hit the reference dispatcher, so the grid shows
// both the fast-path win and that the reference path did not regress.
// The UniformSMT24 rows run uniform weights on 24 threads, which leave
// Crill's cores unequally occupied (8 with two threads, 8 with one), so
// their dynamic and guided chunks take the reference dispatcher too.
func BenchmarkProbeGrid(b *testing.B) {
	row := func(name string, kind ImbalanceKind, cfg Config) {
		b.Run(name, func(b *testing.B) {
			m, err := NewMachine(Crill())
			if err != nil {
				b.Fatal(err)
			}
			lm := benchLoopKind(10404, kind)
			lm.BuildPrefix() // exclude the one-time prefix-sum build
			var e probeMemo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := probeFresh(m, lm, cfg, &e)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = r
			}
		})
	}
	scheds := []struct {
		name string
		s    Schedule
	}{{"Static", SchedStatic}, {"Dynamic", SchedDynamic}, {"Guided", SchedGuided}}
	kinds := []struct {
		name string
		k    ImbalanceKind
	}{{"Uniform", Uniform}, {"Ramp", Ramp}}
	for _, sc := range scheds {
		for _, chunk := range []int{1, 8, 128} {
			for _, kd := range kinds {
				row(sc.name+"/Chunk"+strconv.Itoa(chunk)+"/"+kd.name, kd.k,
					Config{Threads: 32, Sched: sc.s, Chunk: chunk})
			}
		}
		if sc.s != SchedStatic {
			row(sc.name+"/Chunk1/UniformSMT24", Uniform, Config{Threads: 24, Sched: sc.s, Chunk: 1})
		}
	}
}

// BenchmarkProbeDispatch times regions whose cost is nearly all the
// per-chunk dispatch loop: one dynamic chunk-1 region at LULESH-45's size
// (91,125 chunks) per weight pattern and team size, on Minotaur, the one
// arch with room for 160 threads. Random weights send reinserted threads
// far from the run queue's tail, its slow case: the kernels draw Random
// spreads from 0.2 to 0.8, and 2.5 is a wider one.
func BenchmarkProbeDispatch(b *testing.B) {
	for _, kd := range []struct {
		name string
		im   Imbalance
	}{
		{"ramp", Imbalance{Kind: Ramp, Param: 0.8}},
		{"blocks", Imbalance{Kind: Blocks, Param: 1.45, Blocks: 4}},
		{"sawtooth", Imbalance{Kind: Sawtooth, Param: 0.55, Blocks: 16}},
		{"random0.6", Imbalance{Kind: Random, Param: 0.6, Seed: 1}},
		{"random2.5", Imbalance{Kind: Random, Param: 2.5, Seed: 1}},
	} {
		for _, th := range []int{8, 32, 160} {
			b.Run(kd.name+"/"+strconv.Itoa(th), func(b *testing.B) {
				m, err := NewMachine(Minotaur())
				if err != nil {
					b.Fatal(err)
				}
				lm := benchLoopKind(91125, Uniform)
				lm.Imbalance = kd.im
				lm.BuildPrefix() // exclude the one-time prefix-sum build
				cfg := Config{Threads: th, Sched: SchedDynamic, Chunk: 1}
				var e probeMemo
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := probeFresh(m, lm, cfg, &e)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = r
				}
			})
		}
	}
}

func BenchmarkWeightSum(b *testing.B) {
	lm := benchLoop(91125)
	lm.BuildPrefix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lm.WeightSum(i%1000, i%1000+4096)
	}
}

func BenchmarkMissRates(b *testing.B) {
	a := Crill()
	spec := benchLoop(1).Mem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.missRates(spec, 32, 8, 2)
	}
}

// BenchmarkBuildPrefix times one build of a region's weight prefix sums
// at LULESH-60's size (216,000 elements), per imbalance kind. A server-side
// search whose app pool is empty builds its app, so it pays this once per
// non-uniform region (a uniform one has no prefix); the Sawtooth row is
// LULESH's CalcFBHourglassForceForElems.
func BenchmarkBuildPrefix(b *testing.B) {
	for _, im := range []Imbalance{
		{Kind: Ramp, Param: 1.0},
		{Kind: Blocks, Param: 1.45, Blocks: 4},
		{Kind: Random, Param: 0.5, Seed: 1},
		{Kind: Sawtooth, Param: 0.55, Blocks: 16},
	} {
		b.Run(im.Kind.String(), func(b *testing.B) {
			lm := &LoopModel{Name: "bench", Iters: 216000, CompNSPerIter: 1, Imbalance: im}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lm.materializePrefix()
			}
		})
	}
}
