// Package bench is the experiment harness: one driver per table and figure
// of the paper's evaluation (§IV-V), each regenerating the corresponding
// rows or series from the simulated platforms. The drivers compose the
// full ARCS stack — kernels -> omp runtime -> OMPT -> APEX -> ARCS ->
// Active Harmony — exactly as an application run would.
package bench

import (
	"fmt"
	"math"

	"arcs/internal/apex"
	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
	"arcs/internal/stats"
)

// Arm identifies the strategy under measurement.
type Arm int

const (
	// ArmDefault is the paper's baseline: maximum hardware threads, static
	// schedule, default chunking, no tool attached.
	ArmDefault Arm = iota
	// ArmOnline is ARCS-Online (Nelder-Mead in the measured run).
	ArmOnline
	// ArmOffline is ARCS-Offline (exhaustive search run first, then the
	// measured replay run).
	ArmOffline
)

// String implements fmt.Stringer, matching the paper's legend names.
func (a Arm) String() string {
	switch a {
	case ArmDefault:
		return "Default"
	case ArmOnline:
		return "ARCS-Online"
	case ArmOffline:
		return "ARCS-Offline"
	default:
		return fmt.Sprintf("Arm(%d)", int(a))
	}
}

// DefaultNoise is the run-to-run noise sigma used by all experiments.
const DefaultNoise = 0.01

// RunSpec describes one measured experiment arm.
type RunSpec struct {
	Arch *sim.Arch
	App  *kernels.App
	CapW float64 // 0 = TDP
	Arm  Arm

	Seed  int64
	Noise float64 // 0 = DefaultNoise; negative = disabled
	Runs  int     // 0 = 3, the paper's protocol

	Objective  arcs.Objective
	Algo       arcs.SearchAlgo // online search override (ablation)
	MinRegionS float64         // selective-tuning ablation
	TuneDVFS   bool            // §VII future-work DVFS dimension
	TuneBind   bool            // OMP_PROC_BIND placement dimension

	// ConfigChangeS overrides the architecture's configuration-change
	// overhead (ablation). Zero keeps the architecture value; a negative
	// value selects an explicit zero overhead.
	ConfigChangeS float64
}

func (s *RunSpec) normalize() RunSpec {
	out := *s
	if out.Runs <= 0 {
		out.Runs = 3
	}
	if out.Noise == 0 { //arcslint:ignore floatcmp 0 is the unset sentinel, assigned verbatim, never computed
		out.Noise = DefaultNoise
	}
	if out.Noise < 0 {
		out.Noise = 0
	}
	switch {
	case out.ConfigChangeS == 0: //arcslint:ignore floatcmp 0 is the unset sentinel, assigned verbatim, never computed
		out.ConfigChangeS = out.Arch.ConfigChangeS
	case out.ConfigChangeS < 0:
		out.ConfigChangeS = 0
	}
	return out
}

// arch returns a copy of the spec's architecture with overrides applied.
// Callers pass a normalized spec, so ConfigChangeS is already resolved.
func (s *RunSpec) arch() *sim.Arch {
	a := *s.Arch
	a.ConfigChangeS = s.ConfigChangeS
	return &a
}

// Outcome aggregates the measured runs of one arm.
type Outcome struct {
	TimeS    float64 // aggregate per the paper's protocol
	EnergyJ  float64
	DRAMJ    float64
	Times    []float64
	Energies []float64
	DRAMs    []float64
	Reports  []arcs.RegionReport // from the last measured run
}

// Measure runs one experiment arm end to end: for ARCS-Offline it first
// performs the unmeasured exhaustive search run, then measures Runs
// executions and aggregates them — average on dedicated machines (Crill),
// minimum on shared ones (Minotaur), as in §IV-D.
func Measure(spec RunSpec) (Outcome, error) {
	sp := spec.normalize()
	arch := sp.arch()
	capW := sp.CapW

	var hist *arcs.MemHistory
	if sp.Arm == ArmOffline {
		h, err := offlineSearch(sp, arch)
		if err != nil {
			return Outcome{}, err
		}
		hist = h
	}

	// The Runs repetitions are independent (each builds its own Machine,
	// runtime, and tuner; an offline history is only read during replay),
	// so they run through the harness worker pool. Results land in
	// run-indexed slots so the aggregation below is order-independent.
	type runResult struct {
		timeS, energyJ, dramJ float64
		reports               []arcs.RegionReport
	}
	results := make([]runResult, sp.Runs)
	runErr := forEach(sp.Runs, func(run int) error {
		mach, err := NewMachine(arch, capW)
		if err != nil {
			return err
		}
		mach.SetNoise(sp.Noise, sp.Seed+int64(run)*7919+1)
		rt := omp.NewRuntime(mach)

		var tuner *arcs.Tuner
		if sp.Arm != ArmDefault {
			opts := arcs.Options{
				Objective:  sp.Objective,
				Seed:       sp.Seed + int64(run),
				MinRegionS: sp.MinRegionS,
				TuneDVFS:   sp.TuneDVFS,
				TuneBind:   sp.TuneBind,
			}
			switch sp.Arm {
			case ArmOnline:
				opts.Strategy = arcs.StrategyOnline
				opts.Algo = sp.Algo
			case ArmOffline:
				opts.Strategy = arcs.StrategyOfflineReplay
				opts.History = hist
				opts.Key = HistoryKey(sp.App, mach)
			}
			tuner, _, err = AttachTuner(mach, rt, opts)
			if err != nil {
				return err
			}
		}

		res, err := sp.App.Run(rt)
		if err != nil {
			return err
		}
		if tuner != nil {
			if err := tuner.Finish(); err != nil {
				return err
			}
			results[run].reports = tuner.Report()
		}
		results[run].timeS = res.TimeS
		results[run].energyJ = res.EnergyJ
		results[run].dramJ = res.DRAMEnergyJ
		return nil
	})
	if runErr != nil {
		return Outcome{}, runErr
	}

	var out Outcome
	for run := range results {
		out.Times = append(out.Times, results[run].timeS)
		out.Energies = append(out.Energies, results[run].energyJ)
		out.DRAMs = append(out.DRAMs, results[run].dramJ)
		if results[run].reports != nil {
			out.Reports = results[run].reports // keep the last run's reports
		}
	}

	// Aggregation protocol: min on shared machines, mean on dedicated.
	if arch.Name == "Minotaur" {
		out.TimeS = stats.Min(out.Times)
		out.EnergyJ = stats.Min(out.Energies)
		out.DRAMJ = stats.Min(out.DRAMs)
	} else {
		out.TimeS = stats.Mean(out.Times)
		out.EnergyJ = stats.Mean(out.Energies)
		out.DRAMJ = stats.Mean(out.DRAMs)
	}
	return out, nil
}

// offlineSearch performs the unmeasured exhaustive search execution and
// returns the resulting history.
func offlineSearch(sp RunSpec, arch *sim.Arch) (*arcs.MemHistory, error) {
	mach, err := NewMachine(arch, sp.CapW)
	if err != nil {
		return nil, err
	}
	// The search run observes the same noisy environment.
	mach.SetNoise(sp.Noise, sp.Seed*31+17)
	hist := arcs.NewMemHistory()
	return hist, OfflineSearch(mach, sp.App, hist, arcs.Options{
		Objective: sp.Objective, Seed: sp.Seed, TuneDVFS: sp.TuneDVFS, TuneBind: sp.TuneBind,
	})
}

// OfflineSearch is ARCS-Offline's unmeasured search execution (§III-B):
// it runs app on mach long enough for every region to visit the search
// space and saves each region's best to hist under HistoryKey(app, mach).
// It sets opts' strategy, history and key; the caller sets the rest.
func OfflineSearch(mach *sim.Machine, app *kernels.App, hist arcs.History, opts arcs.Options) error {
	opts.Strategy = arcs.StrategyOfflineSearch
	opts.History = hist
	opts.Key = HistoryKey(app, mach)
	rt := omp.NewRuntime(mach)
	tuner, _, err := AttachTuner(mach, rt, opts)
	if err != nil {
		return err
	}

	arch := mach.Arch()
	space := arcs.TableISpace(arch)
	if opts.TuneDVFS {
		space = space.WithDVFS(arch)
	}
	if opts.TuneBind {
		space = space.WithBind()
	}
	// Every region needs space.Size() invocations; regions called once per
	// step dominate, so size the run by them (plus slack).
	if _, err := app.WithSteps(space.Size() + 8).Run(rt); err != nil {
		return err
	}
	return tuner.Finish()
}

// AttachTuner wires an ARCS tuner into a runtime the way an application
// run does: an APEX instance reading the machine's power, registered as
// the runtime's OMPT tool, with the tuner's policies on top. It returns
// the APEX instance too, for callers that report its profile.
func AttachTuner(mach *sim.Machine, rt *omp.Runtime, opts arcs.Options) (*arcs.Tuner, *apex.Instance, error) {
	apx := attachAPEX(mach, rt)
	tuner, err := arcs.New(apx, mach.Arch(), opts)
	return tuner, apx, err
}

// attachAPEX registers APEX, reading mach's power, as rt's OMPT tool.
func attachAPEX(mach *sim.Machine, rt *omp.Runtime) *apex.Instance {
	apx := apex.New()
	apx.SetPowerSource(mach)
	rt.RegisterTool(apex.NewTool(apx))
	return apx
}

// HistoryKey builds the context key: app, workload and the cap the
// machine runs at (a requested cap above TDP is clamped to TDP).
func HistoryKey(app *kernels.App, mach *sim.Machine) func(string) arcs.HistoryKey {
	capW := mach.PowerCap()
	return func(region string) arcs.HistoryKey {
		return arcs.HistoryKey{App: app.Name, Workload: app.Workload, CapW: capW, Region: region}
	}
}

// NewMachine builds a machine for arch capped at capW watts (0 = TDP).
func NewMachine(arch *sim.Arch, capW float64) (*sim.Machine, error) {
	mach, err := sim.NewMachine(arch)
	if err != nil {
		return nil, err
	}
	if capW > 0 {
		if err := mach.SetPowerCap(capW); err != nil {
			return nil, err
		}
	}
	return mach, nil
}

// CrillCaps are the five evaluated package power levels on Crill (§IV-D);
// 0 denotes the TDP (115 W) level.
func CrillCaps() []float64 { return []float64{55, 70, 85, 100, 0} }

// CapLabel renders a cap the way the paper's x-axes do.
func CapLabel(capW float64, arch *sim.Arch) string {
	if capW == 0 { //arcslint:ignore floatcmp 0 is the explicit TDP sentinel in the cap lists
		return fmt.Sprintf("TDP(%.0fW)", arch.TDPW)
	}
	return fmt.Sprintf("%.0fW", capW)
}

// Normalized returns x/base guarding against zero.
func Normalized(x, base float64) float64 {
	if base == 0 { //arcslint:ignore floatcmp exact zero guard before division
		return math.NaN()
	}
	return x / base
}
