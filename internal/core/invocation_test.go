package arcs

import (
	"testing"

	"arcs/internal/apex"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

// convergedRegion builds SP-B's compute_rhs on a capped Crill runtime
// with APEX and an ARCS-Online Tuner attached, and runs it until the
// Tuner's search has converged.
func convergedRegion(tb testing.TB) (*omp.Runtime, *omp.Region, *Tuner) {
	tb.Helper()
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sim.NewMachine(sim.Crill())
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.SetPowerCap(70); err != nil {
		tb.Fatal(err)
	}
	m.SetNoise(0.02, 1)
	rt := omp.NewRuntime(m)
	apx := apex.New()
	apx.SetPowerSource(m)
	rt.RegisterTool(apex.NewTool(apx))
	tuner, err := New(apx, m.Arch(), Options{Strategy: StrategyOnline, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	spec := app.Region("compute_rhs")
	region := rt.Region(spec.Name, spec.Model)
	for i := 0; ; i++ {
		if i == 1000 {
			tb.Fatal("compute_rhs did not converge in 1000 invocations")
		}
		if _, err := rt.Run(region); err != nil {
			tb.Fatal(err)
		}
		if r := tuner.Report(); r[0].Converged {
			break
		}
	}
	// One more invocation: the first after convergence decodes the best.
	if _, err := rt.Run(region); err != nil {
		tb.Fatal(err)
	}
	return rt, region, tuner
}

// TestConvergedInvocationAllocs: once a region's search has converged, an
// invocation through the runtime, APEX and the Tuner allocates nothing: the
// Tuner serves the decoded best without a session step, and the machine's
// probe table serves the probe into the machine's own buffers.
func TestConvergedInvocationAllocs(t *testing.T) {
	rt, region, tuner := convergedRegion(t)
	evals := tuner.Report()[0].Evals
	if n := testing.AllocsPerRun(100, func() { _, _ = rt.Run(region) }); n != 0 {
		t.Fatalf("a converged invocation allocates %v times; want 0", n)
	}
	if r := tuner.Report()[0]; !r.Converged || r.Evals != evals {
		t.Fatalf("after converging: %+v, %d evaluations before", r, evals)
	}
}

// BenchmarkRegionInvocation times one invocation of a converged, tuned
// SP-B compute_rhs through omp.Run with APEX and the Tuner attached: the
// per-invocation cost a tuned application pays at every time step.
func BenchmarkRegionInvocation(b *testing.B) {
	rt, region, _ := convergedRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(region); err != nil {
			b.Fatal(err)
		}
	}
}
