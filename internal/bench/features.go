package bench

import (
	"fmt"
	"io"

	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

// FeatureRow is one region of a Fig. 3/6/10-style feature comparison:
// cache miss rates and OMP_BARRIER time of the ARCS-Offline configuration
// normalised to the default configuration (smaller is better; 1.0 = no
// change).
type FeatureRow struct {
	Region  string
	ARCSCfg string

	L1      float64
	L2      float64
	L3      float64
	Barrier float64

	// Raw default-side values for reference.
	DefaultL1, DefaultL2, DefaultL3 float64
	DefaultBarrierS                 float64
}

// FeatureComparison runs the offline exhaustive search for the app at the
// cap, then probes the named regions under the default and the chosen
// configurations and reports normalised features.
func FeatureComparison(arch *sim.Arch, app *kernels.App, capW float64, regions []string, seed int64) ([]FeatureRow, error) {
	spec := (&RunSpec{Arch: arch, App: app, CapW: capW, Arm: ArmOffline, Seed: seed, Noise: -1}).normalize()
	hist, err := offlineSearch(spec, arch)
	if err != nil {
		return nil, err
	}
	mach, err := NewMachine(arch, capW)
	if err != nil {
		return nil, err
	}
	key := HistoryKey(app, mach)

	var rows []FeatureRow
	for _, name := range regions {
		rs := app.Region(name)
		if rs == nil {
			return nil, fmt.Errorf("bench: app %s has no region %q", app, name)
		}
		cfgVals, ok := hist.Load(key(name))
		if !ok {
			return nil, fmt.Errorf("bench: no tuned configuration for region %q", name)
		}
		defCfg := omp.Resolve(arch, omp.ICV{})
		defRes, err := mach.ProbeLoop(rs.Model, defCfg)
		if err != nil {
			return nil, err
		}
		tunedCfg := omp.Resolve(arch, omp.ICV{
			NumThreads: cfgVals.Threads, Schedule: cfgVals.Schedule, Chunk: cfgVals.Chunk, Bind: cfgVals.Bind,
		})
		tunedRes, err := mach.ProbeLoop(rs.Model, tunedCfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FeatureRow{
			Region:          name,
			ARCSCfg:         cfgVals.String(),
			L1:              Normalized(tunedRes.Miss.L1, defRes.Miss.L1),
			L2:              Normalized(tunedRes.Miss.L2, defRes.Miss.L2),
			L3:              Normalized(tunedRes.Miss.L3, defRes.Miss.L3),
			Barrier:         Normalized(tunedRes.BarrierS, defRes.BarrierS),
			DefaultL1:       defRes.Miss.L1,
			DefaultL2:       defRes.Miss.L2,
			DefaultL3:       defRes.Miss.L3,
			DefaultBarrierS: defRes.BarrierS,
		})
	}
	return rows, nil
}

// PrintFeatureRows renders a feature-comparison table.
func PrintFeatureRows(w io.Writer, title string, rows []FeatureRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-34s %-22s %8s %8s %8s %8s\n",
		"region", "ARCS config", "L1", "L2", "L3", "BARRIER")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-22s %8.3f %8.3f %8.3f %8.3f\n",
			r.Region, "("+r.ARCSCfg+")", r.L1, r.L2, r.L3, r.Barrier)
	}
	fmt.Fprintln(w, "(values are ARCS-Offline normalised to default; < 1.0 is an improvement)")
}

// Table2Result reproduces Table II: the optimal configuration chosen by
// the ARCS-Offline strategy for the four major SP regions at TDP.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one region's chosen configuration.
type Table2Row struct {
	Region string
	Config arcs.ConfigValues
}

// Table2 runs the experiment.
func Table2() (*Table2Result, error) {
	arch := sim.Crill()
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	spec := (&RunSpec{Arch: arch, App: app, Arm: ArmOffline, Seed: 2016, Noise: -1}).normalize()
	hist, err := offlineSearch(spec, arch)
	if err != nil {
		return nil, err
	}
	mach, err := NewMachine(arch, 0)
	if err != nil {
		return nil, err
	}
	key := HistoryKey(app, mach)
	res := &Table2Result{}
	for _, name := range []string{"compute_rhs", "x_solve", "y_solve", "z_solve"} {
		cfg, ok := hist.Load(key(name))
		if !ok {
			return nil, fmt.Errorf("bench: table2: missing history for %q", name)
		}
		res.Rows = append(res.Rows, Table2Row{Region: name, Config: cfg})
	}
	return res, nil
}

// Print renders Table II.
func (t *Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table II — Optimal configuration chosen by ARCS-Offline for SP regions (class B, TDP)")
	fmt.Fprintf(w, "%-20s %s\n", "Region", "Optimal Configuration (Thread, Schedule, Chunk)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-20s %s\n", r.Region, r.Config)
	}
}

// Table1 renders Table I (the ARCS search parameter sets) for both
// machines; it is definitional rather than measured.
func Table1(w io.Writer) {
	crill := arcs.TableISpace(sim.Crill())
	mino := arcs.TableISpace(sim.Minotaur())
	fmt.Fprintln(w, "Table I — Set of ARCS search parameters for OpenMP parallel regions")
	fmt.Fprintf(w, "%-28s %v (default = max hardware threads)\n", "Number of threads (Crill)", crill.Threads[:len(crill.Threads)-1])
	fmt.Fprintf(w, "%-28s %v (default = max hardware threads)\n", "Number of threads (Minotaur)", mino.Threads[:len(mino.Threads)-1])
	fmt.Fprintf(w, "%-28s dynamic, static, guided, default\n", "Schedule Type")
	fmt.Fprintf(w, "%-28s %v (default = runtime derived)\n", "Chunk Size", crill.Chunks[:len(crill.Chunks)-1])
}
