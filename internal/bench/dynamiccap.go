package bench

import (
	"fmt"
	"io"

	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

// DynamicCapResult evaluates the paper's §II scenario: a resource manager
// adjusts the node's power level while the application runs ("the runtime
// configurations need to be changed dynamically. Our ARCS framework can do
// this efficiently"). The driver plays the resource manager, stepping the
// Crill cap through TDP -> 55 W -> 85 W during an SP run, and compares:
//
//   - Default: the static baseline;
//   - ARCS-Online (stale): tuned once, keeps its converged configurations
//     after the cap moves;
//   - ARCS-Online (re-tune): restarts its searches on each cap change;
//   - ARCS-Offline (per-cap history): replays configurations searched
//     offline at each cap, switching instantly on cap changes.
type DynamicCapResult struct {
	Phases     []float64 // cap schedule (W, 0 = TDP)
	Arms       []string
	TimeNorm   []float64
	EnergyNorm []float64
}

// dynamicCapSchedule is the cap per phase; each phase runs stepsPerPhase
// time steps.
var dynamicCapSchedule = []float64{0, 55, 85}

const dynamicCapStepsPerPhase = 25

// DynamicCap runs the experiment.
func DynamicCap() (*DynamicCapResult, error) {
	arch := sim.Crill()
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}

	// Per-cap offline histories (three separate search runs, unmeasured).
	hist := arcs.NewMemHistory()
	for _, capW := range dynamicCapSchedule {
		spec := (&RunSpec{Arch: arch, App: app, CapW: capW, Arm: ArmOffline, Seed: 40, Noise: -1}).normalize()
		h, err := offlineSearch(spec, arch)
		if err != nil {
			return nil, err
		}
		for _, e := range h.Entries() {
			hist.Save(e.Key, e.Cfg, e.Perf)
		}
	}

	arms := []struct {
		label string
		opts  func(mach *sim.Machine) arcs.Options // nil: no tuner attached
	}{
		{"Default", nil},
		{"ARCS-Online (stale)", func(*sim.Machine) arcs.Options {
			return arcs.Options{Strategy: arcs.StrategyOnline, Seed: 40}
		}},
		{"ARCS-Online (re-tune)", func(*sim.Machine) arcs.Options {
			return arcs.Options{Strategy: arcs.StrategyOnline, Seed: 40, ReTuneOnCapChange: true}
		}},
		{"ARCS-Offline (per-cap history)", func(mach *sim.Machine) arcs.Options {
			key := func(region string) arcs.HistoryKey {
				// Dynamic key: reads the machine's *current* cap.
				return arcs.HistoryKey{App: app.Name, Workload: app.Workload, CapW: mach.PowerCap(), Region: region}
			}
			return arcs.Options{
				Strategy: arcs.StrategyOfflineReplay, Seed: 40,
				History: hist, Key: key, ReTuneOnCapChange: true,
			}
		}},
	}

	res := &DynamicCapResult{Phases: dynamicCapSchedule}
	var baseT, baseE float64
	for _, a := range arms {
		mach, err := NewMachine(arch, 0)
		if err != nil {
			return nil, err
		}
		mach.SetNoise(DefaultNoise, 40)
		rt := omp.NewRuntime(mach)
		var tuner *arcs.Tuner
		if a.opts != nil {
			tuner, _, err = AttachTuner(mach, rt, a.opts(mach))
			if err != nil {
				return nil, err
			}
		}
		if err := runWithCapSchedule(mach, rt, app); err != nil {
			return nil, err
		}
		if tuner != nil {
			if err := tuner.Finish(); err != nil {
				return nil, err
			}
		}
		t, e := mach.Now(), mach.EnergyJ()
		if a.label == "Default" {
			baseT, baseE = t, e
		}
		res.Arms = append(res.Arms, a.label)
		res.TimeNorm = append(res.TimeNorm, Normalized(t, baseT))
		res.EnergyNorm = append(res.EnergyNorm, Normalized(e, baseE))
	}
	return res, nil
}

// runWithCapSchedule plays the resource manager: it steps the cap through
// the schedule while driving the application one time step at a time.
func runWithCapSchedule(mach *sim.Machine, rt *omp.Runtime, app *kernels.App) error {
	for phase, capW := range dynamicCapSchedule {
		if err := mach.SetPowerCap(capW); err != nil {
			return err
		}
		for step := 0; step < dynamicCapStepsPerPhase; step++ {
			for _, spec := range app.Regions {
				region := rt.Region(spec.Name, spec.Model)
				for c := 0; c < spec.CallsPerStep; c++ {
					if _, err := rt.Run(region); err != nil {
						return fmt.Errorf("bench: dynamic cap phase %d: %w", phase, err)
					}
				}
			}
		}
	}
	return nil
}

// Print renders the comparison.
func (r *DynamicCapResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Dynamic power caps (§II) — SP class B on Crill, cap schedule %v W (0 = TDP), %d steps each\n",
		r.Phases, dynamicCapStepsPerPhase)
	fmt.Fprintf(w, "%-34s %10s %10s\n", "strategy", "time", "energy")
	for i := range r.Arms {
		fmt.Fprintf(w, "%-34s %10.3f %10.3f\n", r.Arms[i], r.TimeNorm[i], r.EnergyNorm[i])
	}
	fmt.Fprintln(w, "(normalised to Default across the whole schedule; smaller is better)")
}
