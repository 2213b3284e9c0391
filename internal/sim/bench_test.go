package sim

import (
	"strconv"
	"testing"
)

// Micro-benchmarks for the simulator hot paths: one region execution under
// each scheduling policy, at NPB-like and LULESH-like iteration counts.
// These bound the cost of the experiment harness (an offline search is
// ~250 of these per region). Each iteration simulates afresh through
// probeFresh, so the dispatcher is timed rather than the machine's memo of
// its last probe; BenchmarkProbeRepeat times the memo's hit path.

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

// probeFresh is ProbeLoop without the memo: it simulates lm under cfg into
// e and returns the result as ProbeLoop would.
func probeFresh(m *Machine, lm *LoopModel, cfg Config, e *probeMemo) (ExecResult, error) {
	if err := m.simulate(lm, cfg, e); err != nil {
		return ExecResult{}, err
	}
	return e.result(m.noiseFactor(), lm.Iters, m.arch), nil
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
// iteration after the first is a memo hit, paying only the noise draw and
// the copy of the per-thread slices.
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

// BenchmarkProbeGrid covers the full {schedule} × {chunk} × {weight kind}
// matrix at NPB scale. The Uniform rows hit the closed-form/batched fast
// paths; the Ramp rows hit the reference dispatcher, so the grid shows
// both the fast-path win and that the reference path did not regress.
func BenchmarkProbeGrid(b *testing.B) {
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
				name := sc.name + "/Chunk" + strconv.Itoa(chunk) + "/" + kd.name
				b.Run(name, func(b *testing.B) {
					m, err := NewMachine(Crill())
					if err != nil {
						b.Fatal(err)
					}
					lm := benchLoopKind(10404, kd.k)
					cfg := Config{Threads: 32, Sched: sc.s, Chunk: chunk}
					if kd.k != Uniform {
						lm.BuildPrefix() // exclude the one-time prefix-sum build
					}
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
// search builds its app afresh, so it pays this once per non-uniform
// region (a uniform one has no prefix); the Sawtooth row is LULESH's
// CalcFBHourglassForceForElems.
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
