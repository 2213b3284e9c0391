// LULESH tuning: reproduces the paper's §V-C analysis of why ARCS
// struggles on LULESH on the Sandy Bridge node (tiny regions pay the full
// configuration-change overhead) while winning on the POWER8 node (the
// 160-thread default is inefficient enough to pay for the overhead).
//
//	go run ./examples/luleshtuning
package main

import (
	"fmt"
	"log"
	"os"

	"arcs/internal/bench"
	"arcs/internal/kernels"
	"arcs/internal/sim"
)

func main() {
	app, err := kernels.LULESH(45)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1 — TAU-style diagnosis on Crill: where does the time go?
	fmt.Println("=== OMPT event profile, default configuration (Crill, TDP) ===")
	prof, err := bench.Fig9()
	if err != nil {
		log.Fatal(err)
	}
	prof.Write(os.Stdout, 8)

	overhead := sim.Crill().ConfigChangeS
	fmt.Printf("\nconfiguration-change overhead on Crill: %.2f ms per region call\n", overhead*1e3)
	for _, name := range []string{"EvalEOSForElems", "CalcPressureForElems"} {
		if r, ok := prof.Region(name); ok {
			fmt.Printf("  %-24s %.2f ms/call -> overhead would be %3.0f%% of the region\n",
				name, r.TimePerCallS*1e3, overhead/r.TimePerCallS*100)
		}
	}

	// Part 2 — the consequence, on both architectures.
	fmt.Println("\n=== ARCS on LULESH, both architectures ===")
	for _, arch := range []*sim.Arch{sim.Crill(), sim.Minotaur()} {
		res, err := bench.MeasureAppLevel(
			fmt.Sprintf("LULESH mesh 45 on %s at TDP", arch.Name),
			arch, app, []float64{0}, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		res.Print(os.Stdout)
	}

	fmt.Println("\n(Crill: per-invocation overhead eats the small gains; Minotaur: taming")
	fmt.Println(" the SMT-8 default team pays for the overhead — the paper's §V-C story.)")
}
