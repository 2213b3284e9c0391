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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"arcs/internal/apex"
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
	arch := res.arch
	capLabel := fmt.Sprintf("%.0fW", cfg.capW)
	if cfg.capW == 0 {
		capLabel = fmt.Sprintf("TDP(%.0fW)", arch.TDPW)
	}
	fmt.Printf("%s.%s on %s at %s, strategy %s\n", cfg.app, cfg.workload, arch.Name, capLabel, cfg.strategy)
	fmt.Printf("default : %8.3f s", res.baseT)
	if arch.HasEnergyCtr {
		fmt.Printf("  %10.1f J", res.baseE)
	}
	fmt.Println()
	fmt.Printf("%-8s: %8.3f s", cfg.strategy, res.tunedT)
	if arch.HasEnergyCtr {
		fmt.Printf("  %10.1f J", res.tunedE)
	}
	fmt.Println()
	fmt.Printf("speedup : %8.3fx  time improvement %.1f%%\n", res.baseT/res.tunedT, (1-res.tunedT/res.baseT)*100)
	if len(res.reports) > 0 {
		fmt.Println("\nper-region configurations:")
		for _, r := range res.reports {
			status := ""
			if r.Skipped {
				status = " [skipped]"
			} else if !r.Converged {
				status = " [searching]"
			}
			fmt.Printf("  %-36s (%s)%s\n", r.Region, r.Config, status)
		}
	}
	return nil
}

// doRun executes the baseline and tuned runs for cfg and returns the
// measurements; run() does the printing.
func doRun(cfg runCfg) (runResult, error) {
	appName, workload, archName := cfg.app, cfg.workload, cfg.arch
	capW, strategy, steps, seed, histPath := cfg.capW, cfg.strategy, cfg.steps, cfg.seed, cfg.histPath
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
	app, err := cli.BuildApp(appName, workload)
	if err != nil {
		return res, err
	}
	if steps > 0 {
		app = app.WithSteps(steps)
	}
	arch, err := cli.BuildArch(archName)
	if err != nil {
		return res, err
	}
	res.arch = arch

	// A served knowledge store replaces the local history file.
	var srvHist *storeclient.History
	if cfg.server != "" {
		if histPath != "" {
			return res, fmt.Errorf("-history and -server are mutually exclusive")
		}
		client := storeclient.New(cfg.server)
		hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
		herr := client.Health(hctx)
		hcancel()
		if herr != nil {
			return res, fmt.Errorf("server %s unreachable: %w", cfg.server, herr)
		}
		var hopts []storeclient.HistoryOption
		if cfg.batchN > 0 {
			hopts = append(hopts, storeclient.WithReportBatching(cfg.batchN))
		}
		srvHist = storeclient.NewHistory(client, hopts...)
	}

	// Baseline run for comparison.
	res.baseT, res.baseE, err = execute(arch, app, capW, nil)
	if err != nil {
		return res, err
	}

	outputs := runOutputs{profCSV: cfg.profCSV, traceOut: cfg.traceOut}
	switch strategy {
	case "default":
		res.tunedT, res.tunedE = res.baseT, res.baseE
	case "online":
		opts := arcs.Options{Strategy: arcs.StrategyOnline, Algo: algo, Seed: seed}
		if srvHist != nil {
			// Warm-start from the service: exact hits skip the search,
			// nearest-cap hits seed it, and Finish reports bests back.
			opts.History, opts.Key, opts.WarmStart = srvHist, keyFn(app, arch, capW), true
		}
		res.tunedT, res.tunedE, res.reports, err = tunedRun(arch, app, capW, opts, outputs)
	case "offline":
		var hist arcs.History = arcs.NewMemHistory()
		if srvHist != nil {
			hist = srvHist
		}
		// Unmeasured search execution.
		_, _, _, err = tunedRun(arch, app.WithSteps(searchSteps(arch, app)), capW, arcs.Options{
			Strategy: arcs.StrategyOfflineSearch, Algo: algo, Seed: seed,
			History: hist, Key: keyFn(app, arch, capW),
		}, runOutputs{})
		if err != nil {
			return res, err
		}
		if histPath != "" {
			mem := hist.(*arcs.MemHistory)
			if err := mem.SaveFile(histPath); err != nil {
				return res, err
			}
			fmt.Printf("history: saved %d entries to %s\n", mem.Len(), histPath)
		}
		res.tunedT, res.tunedE, res.reports, err = tunedRun(arch, app, capW, arcs.Options{
			Strategy: arcs.StrategyOfflineReplay, Seed: seed,
			History: hist, Key: keyFn(app, arch, capW),
		}, outputs)
	case "replay":
		var hist arcs.History
		if srvHist != nil {
			hist = srvHist
		} else {
			if histPath == "" {
				return res, fmt.Errorf("-strategy replay requires -history FILE or -server URL")
			}
			hist, err = arcs.LoadHistoryFile(histPath)
			if err != nil {
				return res, err
			}
		}
		res.tunedT, res.tunedE, res.reports, err = tunedRun(arch, app, capW, arcs.Options{
			Strategy: arcs.StrategyOfflineReplay, Seed: seed,
			History: hist, Key: keyFn(app, arch, capW),
		}, outputs)
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

// execute runs the app once on a fresh machine, optionally wiring ARCS.
func execute(arch *sim.Arch, app *kernels.App, capW float64, setup func(*omp.Runtime, *apex.Instance) error) (float64, float64, error) {
	mach, err := sim.NewMachine(arch)
	if err != nil {
		return 0, 0, err
	}
	if capW > 0 {
		if err := mach.SetPowerCap(capW); err != nil {
			return 0, 0, err
		}
	}
	rt := omp.NewRuntime(mach)
	if setup != nil {
		apx := apex.New()
		apx.SetPowerSource(mach)
		rt.RegisterTool(apex.NewTool(apx))
		if err := setup(rt, apx); err != nil {
			return 0, 0, err
		}
	}
	res, err := app.Run(rt)
	if err != nil {
		return 0, 0, err
	}
	return res.TimeS, res.EnergyJ, nil
}

// runOutputs selects optional artifacts of a tuned run.
type runOutputs struct {
	profCSV  string
	traceOut string
}

func tunedRun(arch *sim.Arch, app *kernels.App, capW float64, opts arcs.Options, outs runOutputs) (float64, float64, []arcs.RegionReport, error) {
	var tuner *arcs.Tuner
	var apxRef *apex.Instance
	var timeline *trace.Timeline
	t, e, err := execute(arch, app, capW, func(rt *omp.Runtime, apx *apex.Instance) error {
		apxRef = apx
		if outs.traceOut != "" {
			timeline = trace.NewTimeline()
			rt.RegisterTool(timeline)
		}
		var err error
		tuner, err = arcs.New(apx, arch, opts)
		return err
	})
	if err != nil {
		return 0, 0, nil, err
	}
	if err := tuner.Finish(); err != nil {
		return 0, 0, nil, err
	}
	if outs.profCSV != "" {
		f, err := os.Create(outs.profCSV)
		if err != nil {
			return 0, 0, nil, err
		}
		if err := apxRef.WriteCSV(f); err != nil {
			f.Close()
			return 0, 0, nil, err
		}
		if err := f.Close(); err != nil {
			return 0, 0, nil, err
		}
		fmt.Printf("profile: wrote %s\n", outs.profCSV)
	}
	if outs.traceOut != "" {
		f, err := os.Create(outs.traceOut)
		if err != nil {
			return 0, 0, nil, err
		}
		if err := timeline.WriteChromeTrace(f); err != nil {
			f.Close()
			return 0, 0, nil, err
		}
		if err := f.Close(); err != nil {
			return 0, 0, nil, err
		}
		fmt.Printf("trace: wrote %s (open in chrome://tracing)\n", outs.traceOut)
	}
	return t, e, tuner.Report(), nil
}

func keyFn(app *kernels.App, arch *sim.Arch, capW float64) func(string) arcs.HistoryKey {
	if capW == 0 {
		capW = arch.TDPW
	}
	return func(region string) arcs.HistoryKey {
		return arcs.HistoryKey{App: app.Name, Workload: app.Workload, CapW: capW, Region: region}
	}
}

func searchSteps(arch *sim.Arch, app *kernels.App) int {
	return arcs.TableISpace(arch).Size() + 8
}
