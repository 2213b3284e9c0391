package bench

import (
	"fmt"
	"io"
)

// Experiment is one reproducible artifact from the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
	// RunChart, when non-nil, renders the artifact as an ASCII chart (the
	// figure itself rather than its table).
	RunChart func(w io.Writer) error
}

// printed adapts a driver whose result prints itself to Experiment.Run.
func printed[R interface{ Print(io.Writer) }](run func() (R, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		r, err := run()
		if err != nil {
			return err
		}
		r.Print(w)
		return nil
	}
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Fig. 1 — BT x_solve configurations across power levels", Run: printed(Fig1)},
		{ID: "tab1", Title: "Table I — ARCS search parameter sets", Run: func(w io.Writer) error {
			Table1(w)
			return nil
		}},
		{ID: "tab2", Title: "Table II — ARCS-Offline optimal configurations for SP", Run: printed(Table2)},
		{ID: "fig3", Title: "Fig. 3 — SP feature comparison (default vs ARCS-Offline)", Run: func(w io.Writer) error {
			rows, err := Fig3()
			if err != nil {
				return err
			}
			PrintFeatureRows(w, "Fig. 3 — SP class B region features at TDP", rows)
			return nil
		}, RunChart: func(w io.Writer) error {
			rows, err := Fig3()
			if err != nil {
				return err
			}
			ChartFeatureRows(w, "Fig. 3 — SP class B region features at TDP", rows)
			return nil
		}},
		{ID: "fig4", Title: "Fig. 4 — SP class B time & energy across power levels", Run: printed(Fig4), RunChart: func(w io.Writer) error {
			r, err := Fig4()
			if err != nil {
				return err
			}
			r.Chart(w, false)
			fmt.Fprintln(w)
			r.Chart(w, true)
			return nil
		}},
		{ID: "fig5", Title: "Fig. 5 — SP class C time & energy at TDP", Run: printed(Fig5)},
		{ID: "fig6", Title: "Fig. 6 — BT compute_rhs feature comparison", Run: func(w io.Writer) error {
			rows, err := Fig6()
			if err != nil {
				return err
			}
			PrintFeatureRows(w, "Fig. 6 — BT compute_rhs features at TDP", rows)
			return nil
		}},
		{ID: "fig7", Title: "Fig. 7 — BT class B time & energy across power levels", Run: printed(Fig7), RunChart: func(w io.Writer) error {
			r, err := Fig7()
			if err != nil {
				return err
			}
			r.Chart(w, false)
			fmt.Fprintln(w)
			r.Chart(w, true)
			return nil
		}},
		{ID: "fig8", Title: "Fig. 8 — LULESH on Crill and Minotaur", Run: printed(Fig8), RunChart: func(w io.Writer) error {
			r, err := Fig8()
			if err != nil {
				return err
			}
			r.Crill.Chart(w, false)
			fmt.Fprintln(w)
			r.Crill.Chart(w, true)
			fmt.Fprintln(w)
			r.Minotaur.Chart(w, false)
			return nil
		}},
		{ID: "fig9", Title: "Fig. 9 — LULESH top-5 regions OMPT event breakdown", Run: func(w io.Writer) error {
			prof, err := Fig9()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Fig. 9 — OMPT events for top 5 LULESH regions (default config, TDP, Crill)")
			prof.Write(w, 5)
			return nil
		}},
		{ID: "fig10", Title: "Fig. 10 — LULESH CalcFBHourglassForceForElems features", Run: func(w io.Writer) error {
			rows, err := Fig10()
			if err != nil {
				return err
			}
			PrintFeatureRows(w, "Fig. 10 — CalcFBHourglassForceForElems features at TDP", rows)
			return nil
		}, RunChart: func(w io.Writer) error {
			rows, err := Fig10()
			if err != nil {
				return err
			}
			ChartFeatureRows(w, "Fig. 10 — CalcFBHourglassForceForElems features at TDP", rows)
			return nil
		}},
		{ID: "xarch", Title: "§V — SP and BT class B on Minotaur (POWER8)", Run: printed(CrossArch)},
		{ID: "ablation-overhead", Title: "Ablation — configuration-change overhead sensitivity (LULESH)", Run: printed(AblationOverhead)},
		{ID: "ablation-selective", Title: "Ablation — selective tuning of small regions (paper future work)", Run: printed(AblationSelective)},
		{ID: "ablation-search", Title: "Ablation — search strategy comparison (SP online)", Run: printed(AblationSearch)},
		{ID: "ablation-powerlaw", Title: "Ablation — DVFS power-law exponent", Run: printed(AblationPowerLaw)},
		{ID: "searchcache", Title: "Eval cache — cold/warm batched region searches (SP class B)", Run: printed(SearchCache)},
		{ID: "dynamic-cap", Title: "§II — dynamic power-cap adjustment mid-run", Run: printed(DynamicCap)},
		{ID: "future-dvfs", Title: "Future work §VII — per-region DVFS dimension", Run: printed(FutureDVFS)},
		{ID: "future-dram", Title: "Future work §VII — memory-power accounting", Run: printed(FutureDRAM)},
		{ID: "future-bind", Title: "Extension — OMP_PROC_BIND placement dimension", Run: printed(FutureBind)},
		{ID: "overprovision", Title: "Motivation — fixed global power budget across node counts", Run: printed(func() (*OverProvisionResult, error) { return OverProvision(1120) })},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
