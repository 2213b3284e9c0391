package bench

import (
	"fmt"
	"io"

	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
	"arcs/internal/trace"
)

// Fig3 reproduces the SP feature comparison (L1/L2/L3 miss rates and
// OMP_BARRIER time, default vs ARCS-Offline, class B at TDP).
func Fig3() ([]FeatureRow, error) {
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	return FeatureComparison(sim.Crill(), app, 0,
		[]string{"compute_rhs", "x_solve", "y_solve", "z_solve"}, 3)
}

// Fig4 reproduces the SP class B application-level comparison across the
// five Crill power levels.
func Fig4() (*AppLevel, error) {
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	return MeasureAppLevel("Fig. 4 — SP class B on Crill, five power levels",
		sim.Crill(), app, CrillCaps(), 4)
}

// Fig5 reproduces the SP class C comparison at TDP (workload sensitivity).
func Fig5() (*AppLevel, error) {
	app, err := kernels.SP(kernels.ClassC)
	if err != nil {
		return nil, err
	}
	return MeasureAppLevel("Fig. 5 — SP class C on Crill at TDP",
		sim.Crill(), app, []float64{0}, 5)
}

// Fig6 reproduces the BT compute_rhs feature comparison at TDP.
func Fig6() ([]FeatureRow, error) {
	app, err := kernels.BT(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	return FeatureComparison(sim.Crill(), app, 0, []string{"compute_rhs"}, 6)
}

// Fig7 reproduces the BT class B application-level comparison across the
// five Crill power levels.
func Fig7() (*AppLevel, error) {
	app, err := kernels.BT(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	return MeasureAppLevel("Fig. 7 — BT class B on Crill, five power levels",
		sim.Crill(), app, CrillCaps(), 7)
}

// Fig8Result bundles the three panels of Fig. 8: LULESH mesh 45 on Crill
// (time and energy, five levels) and on Minotaur (time only, TDP).
type Fig8Result struct {
	Crill    *AppLevel
	Minotaur *AppLevel
}

// Fig8 runs both platforms.
func Fig8() (*Fig8Result, error) {
	appC, err := kernels.LULESH(45)
	if err != nil {
		return nil, err
	}
	appM, err := kernels.LULESH(45)
	if err != nil {
		return nil, err
	}
	// The two platforms are independent; run both panels concurrently.
	var crill, mino *AppLevel
	err = forEach(2, func(i int) error {
		var e error
		if i == 0 {
			crill, e = MeasureAppLevel("Fig. 8a/8b — LULESH mesh 45 on Crill, five power levels",
				sim.Crill(), appC, CrillCaps(), 8)
		} else {
			mino, e = MeasureAppLevel("Fig. 8c — LULESH mesh 45 on Minotaur at TDP",
				sim.Minotaur(), appM, []float64{0}, 8)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Crill: crill, Minotaur: mino}, nil
}

// Print renders all panels.
func (r *Fig8Result) Print(w io.Writer) {
	r.Crill.Print(w)
	fmt.Fprintln(w)
	r.Minotaur.Print(w)
}

// Fig9 reproduces the OMPT event breakdown of the top five LULESH regions
// under the default configuration at TDP on Crill (TAU-style profile).
func Fig9() (*trace.Profiler, error) {
	arch := sim.Crill()
	app, err := kernels.LULESH(45)
	if err != nil {
		return nil, err
	}
	mach, err := NewMachine(arch, 0)
	if err != nil {
		return nil, err
	}
	rt := omp.NewRuntime(mach)
	attachAPEX(mach, rt)
	prof := trace.New()
	rt.RegisterTool(prof)
	if _, err := app.Run(rt); err != nil {
		return nil, err
	}
	return prof, nil
}

// Fig10 reproduces the CalcFBHourglassForceForElems feature comparison.
func Fig10() ([]FeatureRow, error) {
	app, err := kernels.LULESH(45)
	if err != nil {
		return nil, err
	}
	return FeatureComparison(sim.Crill(), app, 0,
		[]string{"CalcFBHourglassForceForElems"}, 10)
}

// CrossArchResult reports the §V-A/V-B cross-architecture runs: SP and BT
// class B on Minotaur (execution time only).
type CrossArchResult struct {
	SP *AppLevel
	BT *AppLevel
}

// CrossArch runs both benchmarks on Minotaur at TDP.
func CrossArch() (*CrossArchResult, error) {
	sp, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	bt, err := kernels.BT(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	// The two benchmarks are independent; run both tables concurrently.
	var spRes, btRes *AppLevel
	err = forEach(2, func(i int) error {
		var e error
		if i == 0 {
			spRes, e = MeasureAppLevel("Cross-architecture — SP class B on Minotaur at TDP",
				sim.Minotaur(), sp, []float64{0}, 11)
		} else {
			btRes, e = MeasureAppLevel("Cross-architecture — BT class B on Minotaur at TDP",
				sim.Minotaur(), bt, []float64{0}, 12)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	return &CrossArchResult{SP: spRes, BT: btRes}, nil
}

// Print renders both tables.
func (r *CrossArchResult) Print(w io.Writer) {
	r.SP.Print(w)
	fmt.Fprintln(w)
	r.BT.Print(w)
}
