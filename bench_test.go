package arcs_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the design ablations. Each benchmark regenerates the corresponding
// artifact end to end through the experiment harness; the reported ns/op
// is the cost of reproducing that artifact with the simulated platforms.
//
// Run a single artifact:
//
//	go test -bench=Fig4 -benchtime=1x
//
// The rendered rows/series are printed by cmd/arcsbench; these benchmarks
// discard the output and only exercise + time the pipeline, verifying on
// the way that each experiment still produces its headline shape.

import (
	"io"
	"testing"

	"arcs/internal/bench"
)

// runExperiment drives a registry entry b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }

// The multi-cap application-level figures are the heavy artifacts; they
// additionally assert their headline shape so a regression in the model or
// the tuner fails the benchmark rather than silently producing a different
// paper.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if imp := res.Improvement(bench.ArmOffline, false); imp < 0.20 || imp > 0.45 {
			b.Fatalf("SP offline improvement %.1f%% outside the paper band (26-40%%)", imp*100)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if imp := res.Improvement(bench.ArmOffline, false); imp < 0.03 || imp > 0.20 {
			b.Fatalf("BT offline improvement %.1f%% outside the small-gain band", imp*100)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		// Crill: ARCS-Online must not win (overhead-dominated, §V-C).
		if imp := res.Crill.Improvement(bench.ArmOnline, false); imp > 0.02 {
			b.Fatalf("LULESH online should not win on Crill, improvement %.1f%%", imp*100)
		}
		// Minotaur: ARCS-Offline must win clearly.
		if imp := res.Minotaur.Improvement(bench.ArmOffline, false); imp < 0.04 {
			b.Fatalf("LULESH offline should win on Minotaur, improvement %.1f%%", imp*100)
		}
	}
}

func BenchmarkCrossArch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.CrossArch()
		if err != nil {
			b.Fatal(err)
		}
		if imp := res.SP.Improvement(bench.ArmOffline, false); imp < 0.10 {
			b.Fatalf("SP on Minotaur should improve substantially, got %.1f%%", imp*100)
		}
	}
}

func BenchmarkAblationOverhead(b *testing.B)  { runExperiment(b, "ablation-overhead") }
func BenchmarkAblationSelective(b *testing.B) { runExperiment(b, "ablation-selective") }
func BenchmarkAblationSearch(b *testing.B)    { runExperiment(b, "ablation-search") }
func BenchmarkAblationPowerLaw(b *testing.B)  { runExperiment(b, "ablation-powerlaw") }

// Extensions beyond the published evaluation: the §II dynamic-power
// scenario and the two §VII future-work features.
func BenchmarkDynamicCap(b *testing.B) { runExperiment(b, "dynamic-cap") }
func BenchmarkFutureDVFS(b *testing.B) { runExperiment(b, "future-dvfs") }
func BenchmarkFutureDRAM(b *testing.B) { runExperiment(b, "future-dram") }
func BenchmarkFutureBind(b *testing.B) { runExperiment(b, "future-bind") }

func BenchmarkOverProvision(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.OverProvision(1120)
		if err != nil {
			b.Fatal(err)
		}
		// The curve must have an interior optimum (not the endpoints) and
		// ARCS must lower it at the default-best operating point.
		first, last := res.Rows[0].Nodes, res.Rows[len(res.Rows)-1].Nodes
		if res.BestDefault == first || res.BestDefault == last {
			b.Fatalf("no interior optimum: best at %d nodes", res.BestDefault)
		}
		for _, row := range res.Rows {
			if row.Nodes == res.BestDefault && row.ARCSS >= row.DefaultS {
				b.Fatalf("ARCS must lower the curve at the optimum: %v vs %v", row.ARCSS, row.DefaultS)
			}
		}
	}
}
