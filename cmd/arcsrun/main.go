// Command arcsrun executes one benchmark under a chosen ARCS strategy and
// power cap, printing the application-level result, the per-region tuned
// configurations, and the comparison against the default configuration.
//
// Usage:
//
//	arcsrun -app SP -workload B -arch crill -cap 70 -strategy offline
//	arcsrun -app LULESH -workload 45 -arch minotaur -strategy online
//
// With -history FILE, an offline search run saves the best configurations
// to FILE (ARCS's history file); -strategy replay loads them from FILE
// instead of searching.
//
// -algo overrides the search algorithm for the online and offline
// strategies; -strategy surrogate is shorthand for the online strategy
// under the learned regression-forest search (-algo surrogate), which
// with -server also seeds its model from neighbouring contexts served by
// the daemon's /v1/neighbors scan.
//
// With -server URL, the history lives in an arcsd tuning service instead
// of a local file: online runs warm-start from served configurations
// (exact hits skip the search entirely; nearest-cap hits seed it) and
// report their search results back, offline runs save to and replay from
// the service, and -strategy replay needs no -history file. Requests use
// the compact binary wire format, and -report-batch N coalesces every N
// reports into one /v1/reports round trip, flushed at the end of the
// run.
//
// Every run goes through the experiment harness's run helpers, so an
// arcsrun search is the harness's search, and history keys carry the cap
// the machine runs at (a -cap above TDP is clamped to TDP).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"arcs/internal/bench"
	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/sim"
	"arcs/internal/storeclient"
	"arcs/internal/trace"
)

func main() {
	var (
		appName  = flag.String("app", "SP", "benchmark: SP, BT or LULESH")
		workload = flag.String("workload", "B", "NPB class (B, C) or LULESH mesh (45, 60)")
		archName = flag.String("arch", "crill", "architecture: crill or minotaur")
		capW     = flag.Float64("cap", 0, "package power cap in watts (0 = TDP)")
		strategy = flag.String("strategy", "online", "default, online, surrogate, offline or replay")
		algoName = flag.String("algo", "auto", "search algorithm: auto, nelder-mead, exhaustive, pro, random, coordinate-descent or surrogate")
		steps    = flag.Int("steps", 0, "override time steps (0 = benchmark default)")
		seed     = flag.Int64("seed", 1, "search seed")
		histPath = flag.String("history", "", "history file to save (offline) or load (replay)")
		server   = flag.String("server", "", "arcsd URL serving the configuration store (e.g. http://localhost:8090)")
		batchN   = flag.Int("report-batch", 0, "buffer N reports per /v1/reports round trip (0 = report individually)")
		profCSV  = flag.String("profile", "", "write the APEX profile of the tuned run to this CSV file")
		traceOut = flag.String("trace", "", "write a Chrome trace of the tuned run to this JSON file")
	)
	flag.Parse()
	if err := run(runCfg{
		app: *appName, workload: *workload, arch: *archName, capW: *capW,
		strategy: *strategy, algo: *algoName, steps: *steps, seed: *seed, histPath: *histPath,
		server: *server, profCSV: *profCSV, traceOut: *traceOut,
		batchN: *batchN,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "arcsrun:", err)
		os.Exit(1)
	}
}

// runCfg carries the parsed command line.
type runCfg struct {
	app, workload, arch, strategy, algo string
	histPath, server, profCSV, traceOut string
	capW                                float64
	steps                               int
	seed                                int64
	batchN                              int
}

// runResult carries the measured outcome of one arcsrun invocation so
// tests can assert on it without parsing stdout.
type runResult struct {
	baseT, baseE   float64
	tunedT, tunedE float64
	reports        []arcs.RegionReport
	arch           *sim.Arch
}

func run(cfg runCfg) error {
	res, err := doRun(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, cfg, res)
	return nil
}

// printResult writes the report of one run. The header names the cap the
// machine runs at: a -cap above TDP is clamped to TDP, so it reads as
// that -cap would.
func printResult(w io.Writer, cfg runCfg, res runResult) {
	arch := res.arch
	fmt.Fprintf(w, "%s.%s on %s at %s, strategy %s\n", cfg.app, cfg.workload, arch.Name, bench.CapLabel(min(cfg.capW, arch.TDPW), arch), cfg.strategy)
	fmt.Fprintf(w, "default : %8.3f s", res.baseT)
	if arch.HasEnergyCtr {
		fmt.Fprintf(w, "  %10.1f J", res.baseE)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s: %8.3f s", cfg.strategy, res.tunedT)
	if arch.HasEnergyCtr {
		fmt.Fprintf(w, "  %10.1f J", res.tunedE)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "speedup : %8.3fx  time improvement %.1f%%\n", res.baseT/res.tunedT, (1-res.tunedT/res.baseT)*100)
	if len(res.reports) > 0 {
		fmt.Fprintln(w, "\nper-region configurations:")
		for _, r := range res.reports {
			status := ""
			if r.Skipped {
				status = " [skipped]"
			} else if !r.Converged {
				status = " [searching]"
			}
			fmt.Fprintf(w, "  %-36s (%s)%s\n", r.Region, r.Config, status)
		}
	}
}

// doRun executes the baseline and tuned runs for cfg and returns the
// measurements; run() does the printing.
func doRun(cfg runCfg) (runResult, error) {
	strategy := cfg.strategy
	var res runResult
	algo := arcs.AlgoAuto
	if cfg.algo != "" {
		var err error
		if algo, err = arcs.ParseSearchAlgo(cfg.algo); err != nil {
			return res, err
		}
	}
	// -strategy surrogate is shorthand for the online strategy driven by
	// the learned model (plus transfer seeding when -server is set).
	if strategy == "surrogate" {
		strategy = "online"
		algo = arcs.AlgoSurrogate
	}
	app, err := cli.BuildApp(cfg.app, cfg.workload)
	if err != nil {
		return res, err
	}
	if cfg.steps > 0 {
		app = app.WithSteps(cfg.steps)
	}
	arch, err := cli.BuildArch(cfg.arch)
	if err != nil {
		return res, err
	}
	res.arch = arch
	hist, srvHist, err := openHistory(cfg, strategy)
	if err != nil {
		return res, err
	}

	// Baseline run for comparison.
	res.baseT, res.baseE, _, err = runApp(arch, app, cfg.capW, nil, runOutputs{})
	if err != nil {
		return res, err
	}

	outputs := runOutputs{profCSV: cfg.profCSV, traceOut: cfg.traceOut}
	replay := &arcs.Options{Strategy: arcs.StrategyOfflineReplay, Seed: cfg.seed, History: hist}
	switch strategy {
	case "default":
		res.tunedT, res.tunedE = res.baseT, res.baseE
	case "online":
		opts := &arcs.Options{Strategy: arcs.StrategyOnline, Algo: algo, Seed: cfg.seed}
		if srvHist != nil {
			// Warm-start from the service: exact hits skip the search,
			// nearest-cap hits seed it, and Finish reports bests back.
			opts.History, opts.WarmStart = hist, true
		}
		res.tunedT, res.tunedE, res.reports, err = runApp(arch, app, cfg.capW, opts, outputs)
	case "offline":
		// Unmeasured search execution.
		var mach *sim.Machine
		if mach, err = bench.NewMachine(arch, cfg.capW); err != nil {
			return res, err
		}
		if err = bench.OfflineSearch(mach, app, hist, arcs.Options{Algo: algo, Seed: cfg.seed}); err != nil {
			return res, err
		}
		if cfg.histPath != "" {
			mem := hist.(*arcs.MemHistory)
			if err := mem.SaveFile(cfg.histPath); err != nil {
				return res, err
			}
			fmt.Printf("history: saved %d entries to %s\n", mem.Len(), cfg.histPath)
		}
		res.tunedT, res.tunedE, res.reports, err = runApp(arch, app, cfg.capW, replay, outputs)
	case "replay":
		res.tunedT, res.tunedE, res.reports, err = runApp(arch, app, cfg.capW, replay, outputs)
	default:
		return res, fmt.Errorf("unknown strategy %q", strategy)
	}
	if err != nil {
		return res, err
	}
	if srvHist != nil {
		// Push any batched reports still buffered: the tail of a run holds
		// the freshest results.
		if ferr := srvHist.Flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "arcsrun: flushing batched reports: %v\n", ferr)
		}
		if serr := srvHist.Err(); serr != nil {
			fmt.Fprintf(os.Stderr, "arcsrun: server degraded mid-run (local search used): %v\n", serr)
		}
	}
	return res, nil
}

// openHistory picks the run's history once: the served store with
// -server (also returned as the adapter, to flush), the -history file
// for a replay, and otherwise a fresh in-memory history.
func openHistory(cfg runCfg, strategy string) (arcs.History, *storeclient.History, error) {
	if cfg.server != "" {
		if cfg.histPath != "" {
			return nil, nil, fmt.Errorf("-history and -server are mutually exclusive")
		}
		client := storeclient.New(cfg.server)
		hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
		herr := client.Health(hctx)
		hcancel()
		if herr != nil {
			return nil, nil, fmt.Errorf("server %s unreachable: %w", cfg.server, herr)
		}
		var hopts []storeclient.HistoryOption
		if cfg.batchN > 0 {
			hopts = append(hopts, storeclient.WithReportBatching(cfg.batchN))
		}
		srvHist := storeclient.NewHistory(client, hopts...)
		return srvHist, srvHist, nil
	}
	if strategy != "replay" {
		return arcs.NewMemHistory(), nil, nil
	}
	if cfg.histPath == "" {
		return nil, nil, fmt.Errorf("-strategy replay requires -history FILE or -server URL")
	}
	hist, err := arcs.LoadHistoryFile(cfg.histPath)
	return hist, nil, err
}

// runOutputs selects optional artifacts of a tuned run.
type runOutputs struct {
	profCSV  string
	traceOut string
}

// runApp runs the app once on a fresh machine capped at capW. A nil opts
// runs the default configuration with no tool attached; otherwise the
// tuner is attached with opts, keyed by the cap the machine runs at, and
// the run's reports and requested artifacts are produced.
func runApp(arch *sim.Arch, app *kernels.App, capW float64, opts *arcs.Options, outs runOutputs) (float64, float64, []arcs.RegionReport, error) {
	mach, err := bench.NewMachine(arch, capW)
	if err != nil {
		return 0, 0, nil, err
	}
	rt := omp.NewRuntime(mach)
	if opts == nil {
		res, err := app.Run(rt)
		return res.TimeS, res.EnergyJ, nil, err
	}
	opts.Key = bench.HistoryKey(app, mach)
	tuner, apx, err := bench.AttachTuner(mach, rt, *opts)
	if err != nil {
		return 0, 0, nil, err
	}
	var timeline *trace.Timeline
	if outs.traceOut != "" {
		timeline = trace.NewTimeline()
		rt.RegisterTool(timeline)
	}
	res, err := app.Run(rt)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := tuner.Finish(); err != nil {
		return 0, 0, nil, err
	}
	if outs.profCSV != "" {
		if err := writeFile(outs.profCSV, apx.WriteCSV); err != nil {
			return 0, 0, nil, err
		}
		fmt.Printf("profile: wrote %s\n", outs.profCSV)
	}
	if outs.traceOut != "" {
		if err := writeFile(outs.traceOut, timeline.WriteChromeTrace); err != nil {
			return 0, 0, nil, err
		}
		fmt.Printf("trace: wrote %s (open in chrome://tracing)\n", outs.traceOut)
	}
	return res.TimeS, res.EnergyJ, tuner.Report(), nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
