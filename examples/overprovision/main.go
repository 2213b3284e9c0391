// Overprovision: the cluster-level view that motivates the paper — a job
// holds a fixed GLOBAL power budget and the resource manager picks the
// node count; more nodes mean lower per-node caps. Because ARCS improves
// every node at every cap, node-level tuning lowers the whole
// makespan-vs-nodes curve.
//
//	go run ./examples/overprovision [-budget 1120]
package main

import (
	"flag"
	"log"
	"os"

	"arcs/internal/bench"
)

func main() {
	budget := flag.Float64("budget", 1120, "global job power budget in watts")
	flag.Parse()

	res, err := bench.OverProvision(*budget)
	if err != nil {
		log.Fatal(err)
	}
	res.Print(os.Stdout)
}
