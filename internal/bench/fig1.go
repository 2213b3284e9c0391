package bench

import (
	"fmt"
	"io"

	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

// Fig1Result reproduces Fig. 1: execution time of the BT x_solve region
// under different OpenMP runtime configurations at different power levels
// on Crill. The paper compares the per-level best configuration against
// the default and a set of fixed configurations.
type Fig1Result struct {
	Caps    []float64 // 0 = TDP
	Configs []string  // row labels; row 0 is "Best Configuration"
	// TimesMS[c][r] is the region time (ms) of config r at cap c.
	TimesMS [][]float64
	// BestConfig[c] names the winning configuration at cap c.
	BestConfig []string
}

// Fig1 runs the experiment.
func Fig1() (*Fig1Result, error) {
	arch := sim.Crill()
	app, err := kernels.BT(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	region := app.Region("x_solve")
	if region == nil {
		return nil, fmt.Errorf("bench: BT has no x_solve region")
	}
	space := arcs.TableISpace(arch)

	fixed := []struct {
		label string
		cfg   sim.Config
	}{
		{"Default (32, static, default)", sim.Config{Threads: 32, Sched: sim.SchedStatic, Chunk: 0}},
		{"24, guided, 1", sim.Config{Threads: 24, Sched: sim.SchedGuided, Chunk: 1}},
		{"32, dynamic, 1", sim.Config{Threads: 32, Sched: sim.SchedDynamic, Chunk: 1}},
		{"32, guided, 1", sim.Config{Threads: 32, Sched: sim.SchedGuided, Chunk: 1}},
		{"16, static, 8", sim.Config{Threads: 16, Sched: sim.SchedStatic, Chunk: 8}},
	}

	res := &Fig1Result{Caps: CrillCaps()}
	res.Configs = append(res.Configs, "Best Configuration")
	for _, f := range fixed {
		res.Configs = append(res.Configs, f.label)
	}

	// Each power level sweeps the space on its own Machine; the levels are
	// independent, so they run through the worker pool into cap-indexed
	// rows (identical tables regardless of parallelism).
	res.TimesMS = make([][]float64, len(res.Caps))
	res.BestConfig = make([]string, len(res.Caps))
	err = forEach(len(res.Caps), func(ci int) error {
		mach, err := NewMachine(arch, res.Caps[ci])
		if err != nil {
			return err
		}
		// Best configuration: full sweep of the Table I space.
		bestT := -1.0
		bestCfg := ""
		for _, th := range space.Threads {
			for _, sk := range space.Schedules {
				for _, ch := range space.Chunks {
					cfg := omp.Resolve(arch, omp.ICV{NumThreads: th, Schedule: sk, Chunk: ch})
					r, err := mach.ProbeLoop(region.Model, cfg)
					if err != nil {
						return err
					}
					if bestT < 0 || r.TimeS < bestT {
						bestT = r.TimeS
						bestCfg = cfg.String()
					}
				}
			}
		}
		row := []float64{bestT * 1e3}
		for _, f := range fixed {
			r, err := mach.ProbeLoop(region.Model, f.cfg)
			if err != nil {
				return err
			}
			row = append(row, r.TimeS*1e3)
		}
		res.TimesMS[ci] = row
		res.BestConfig[ci] = bestCfg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the figure as a table, caps across columns.
func (r *Fig1Result) Print(w io.Writer) {
	arch := sim.Crill()
	fmt.Fprintln(w, "Fig. 1 — BT x_solve region time (ms) per configuration and power level (Crill)")
	fmt.Fprintf(w, "%-32s", "configuration")
	for _, c := range r.Caps {
		fmt.Fprintf(w, " %12s", CapLabel(c, arch))
	}
	fmt.Fprintln(w)
	for ri, label := range r.Configs {
		fmt.Fprintf(w, "%-32s", label)
		for ci := range r.Caps {
			fmt.Fprintf(w, " %12.3f", r.TimesMS[ci][ri])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-32s", "best config per level")
	for _, b := range r.BestConfig {
		fmt.Fprintf(w, " %12s", "("+b+")")
	}
	fmt.Fprintln(w)
}
