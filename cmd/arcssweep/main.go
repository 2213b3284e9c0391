// Command arcssweep exhaustively evaluates the ARCS search space for every
// region of a benchmark at a given power cap and prints, per region, the
// default-configuration metrics and the best configurations found. This is
// the "initial dataset" exploration of §III the paper ran before reducing
// the search space to Table I.
//
// Usage:
//
//	arcssweep -app SP -workload B -arch crill -cap 115 [-top 3]
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"arcs/internal/bench"
	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/omp"
	"arcs/internal/sim"
)

func main() {
	var (
		appName  = flag.String("app", "SP", "benchmark: SP, BT or LULESH")
		workload = flag.String("workload", "B", "NPB class (B, C) or LULESH mesh (45, 60)")
		archName = flag.String("arch", "crill", "architecture: crill or minotaur")
		capW     = flag.Float64("cap", 0, "package power cap in watts (0 = TDP)")
		top      = flag.Int("top", 3, "best configurations to print per region")
		csvPath  = flag.String("csv", "", "also write every (region, config) measurement to this CSV file")
	)
	flag.Parse()
	if err := run(os.Stdout, *appName, *workload, *archName, *capW, *top, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "arcssweep:", err)
		os.Exit(1)
	}
}

type scored struct {
	cfg sim.Config
	res sim.ExecResult
}

func run(w io.Writer, appName, workload, archName string, capW float64, top int, csvPath string) error {
	app, err := cli.BuildApp(appName, workload)
	if err != nil {
		return err
	}
	arch, err := cli.BuildArch(archName)
	if err != nil {
		return err
	}
	mach, err := bench.NewMachine(arch, capW)
	if err != nil {
		return err
	}
	space := arcs.TableISpace(arch)

	fmt.Fprintf(w, "# %s.%s on %s at %.0f W cap — %d configurations per region\n",
		appName, workload, arch.Name, mach.PowerCap(), space.Size())

	var cw *csv.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cw = csv.NewWriter(f)
		defer cw.Flush()
		if err := cw.Write([]string{
			"region", "threads", "schedule", "chunk",
			"time_s", "energy_j", "l1_miss", "l2_miss", "l3_miss", "barrier_frac",
		}); err != nil {
			return err
		}
	}

	for _, spec := range app.Regions {
		def := omp.Resolve(arch, omp.ICV{})
		defRes, err := mach.ProbeLoop(spec.Model, def)
		if err != nil {
			return err
		}
		var all []scored
		for _, th := range space.Threads {
			for _, sk := range space.Schedules {
				for _, ch := range space.Chunks {
					cfg := omp.Resolve(arch, omp.ICV{NumThreads: th, Schedule: sk, Chunk: ch})
					res, err := mach.ProbeLoop(spec.Model, cfg)
					if err != nil {
						return err
					}
					all = append(all, scored{cfg, res})
				}
			}
		}
		if cw != nil {
			for _, sc := range all {
				rec := []string{
					spec.Name, fmt.Sprintf("%d", sc.cfg.Threads), sc.cfg.Sched.String(),
					fmt.Sprintf("%d", sc.cfg.Chunk),
					fmt.Sprintf("%g", sc.res.TimeS), fmt.Sprintf("%g", sc.res.EnergyJ),
					fmt.Sprintf("%g", sc.res.Miss.L1), fmt.Sprintf("%g", sc.res.Miss.L2),
					fmt.Sprintf("%g", sc.res.Miss.L3), fmt.Sprintf("%g", sc.res.BarrierFrac()),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].res.TimeS < all[j].res.TimeS })
		fmt.Fprintf(w, "\n%-34s default: %9.3fms  P=%5.1fW  L1=%.3f L2=%.3f L3=%.3f barrier=%4.1f%%  f=%.2fGHz\n",
			spec.Name, defRes.TimeS*1e3, defRes.AvgPowerW,
			defRes.Miss.L1, defRes.Miss.L2, defRes.Miss.L3, defRes.BarrierFrac()*100, defRes.FreqGHz)
		for i := 0; i < top && i < len(all); i++ {
			s := all[i]
			gain := (defRes.TimeS - s.res.TimeS) / defRes.TimeS * 100
			fmt.Fprintf(w, "  best#%d (%-22s) %9.3fms  %+5.1f%%  P=%5.1fW  L1=%.3f L3=%.3f barrier=%4.1f%%  f=%.2fGHz\n",
				i+1, s.cfg, s.res.TimeS*1e3, gain, s.res.AvgPowerW,
				s.res.Miss.L1, s.res.Miss.L3, s.res.BarrierFrac()*100, s.res.FreqGHz)
		}
	}
	return nil
}
