// Quickstart: tune one OpenMP application with ARCS-Online under a power
// cap and compare against the default OpenMP configuration.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"arcs/internal/bench"
	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/rapl"
	"arcs/internal/sim"
)

func main() {
	// 1. A machine: the simulated Sandy Bridge node ("Crill"), capped to
	//    70 W through the RAPL interface, exactly as the paper does.
	mach, err := bench.NewMachine(sim.Crill(), 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := rapl.Open(mach).SetPowerLimit(rapl.Package, 70); err != nil {
		log.Fatal(err)
	}

	// 2. An application: NPB SP, class B.
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Baseline: the default configuration (max threads, static).
	baseRT := omp.NewRuntime(mach)
	base, err := app.Run(baseRT)
	if err != nil {
		log.Fatal(err)
	}

	// 4. ARCS: OpenMP runtime -> OMPT -> APEX -> policy engine -> Active
	//    Harmony. The tuner selects threads, schedule and chunk size per
	//    region, converging online with Nelder-Mead.
	mach2, err := bench.NewMachine(sim.Crill(), 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := rapl.Open(mach2).SetPowerLimit(rapl.Package, 70); err != nil {
		log.Fatal(err)
	}
	rt := omp.NewRuntime(mach2)
	tuner, _, err := bench.AttachTuner(mach2, rt, arcs.Options{Strategy: arcs.StrategyOnline, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := app.Run(rt)
	if err != nil {
		log.Fatal(err)
	}
	if err := tuner.Finish(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SP class B on %s at 70 W package cap\n\n", mach.Arch().Name)
	fmt.Printf("%-22s %10.3f s  %10.1f J\n", "default (32, static)", base.TimeS, base.EnergyJ)
	fmt.Printf("%-22s %10.3f s  %10.1f J\n", "ARCS-Online", tuned.TimeS, tuned.EnergyJ)
	fmt.Printf("\ntime improvement   %.1f%%\n", (1-tuned.TimeS/base.TimeS)*100)
	fmt.Printf("energy improvement %.1f%%\n\n", (1-tuned.EnergyJ/base.EnergyJ)*100)

	fmt.Println("per-region configurations chosen by ARCS:")
	for _, r := range tuner.Report() {
		fmt.Printf("  %-14s (%s)  after %d evaluations\n", r.Region, r.Config, r.Evals)
	}
}
