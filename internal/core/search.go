package arcs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"arcs/internal/evalcache"
	"arcs/internal/harmony"
	"arcs/internal/omp"
	"arcs/internal/ompt"
	"arcs/internal/sim"
)

// This file implements direct batched searches: instead of replaying an
// application step loop and tuning through the OMPT event path (one
// serial invocation per candidate), BatchSearch probes each region's loop
// model straight against per-worker Machine clones. The batched Harmony
// session exposes whole rounds of candidates at once, so independent
// probes run concurrently while the search trajectory stays byte-for-byte
// identical to the serial protocol. Results are memoised in an optional
// eval cache keyed by (arch, app, workload, region, cap, config), making
// repeated searches over the same context free.

// RegionModel names one region's workload model for a direct search.
type RegionModel struct {
	Name  string
	Model *sim.LoopModel
}

// BatchSearchOptions configures BatchSearch.
type BatchSearchOptions struct {
	Space     SearchSpace // zero value selects TableISpace(arch)
	Objective Objective   // what to minimise (ObjectiveTime default)
	Algo      SearchAlgo  // AlgoAuto selects Nelder-Mead
	MaxEvals  int         // per-region budget (0 = algorithm default)
	Seed      int64       // perturbs stochastic algorithms (xor'd per region)
	CapW      float64     // package power cap; 0 = TDP

	// Parallelism bounds concurrent probes across all regions; <=1 runs
	// serially. Each worker probes a private Machine clone.
	Parallelism int

	// Cache, when non-nil, memoises probe results and deduplicates
	// concurrent probes of the same key. App and Workload identify the
	// workload in cache keys and must be set when Cache is.
	Cache    *evalcache.Cache
	App      string
	Workload string

	// Seeds, when non-nil, supplies transfer seeds for a region:
	// configurations imported from neighbouring tuned contexts, best
	// first, each carrying the perf its source context measured (0 when
	// unknown or not comparable, e.g. a different workload size). Only
	// AlgoSurrogate consumes them; configurations outside the search
	// space are dropped.
	Seeds func(region string) []TransferSeed
}

// TransferSeed is one configuration imported from a neighbouring tuned
// context, with the objective value that context measured for it. A
// positive Perf lets the surrogate strategy verify the transfer in a
// single probe and stop; zero means "good guess, no promise".
type TransferSeed struct {
	Cfg  ConfigValues
	Perf float64
}

// TransferSeeds turns the neighbours of context k into transfer seeds,
// in the neighbours' order. A same-workload neighbour's perf is a
// verifiable promise at a nearby cap; a neighbour of another workload
// size only donates its configuration (Perf 0).
func TransferSeeds(k HistoryKey, ns []Neighbor) []TransferSeed {
	out := make([]TransferSeed, 0, len(ns))
	for _, n := range ns {
		perf := 0.0
		if n.Key.Workload == k.Workload {
			perf = n.Perf
		}
		out = append(out, TransferSeed{Cfg: n.Cfg, Perf: perf})
	}
	return out
}

// BatchSearchResult is one region's search outcome.
type BatchSearchResult struct {
	Region string
	CapW   float64 // effective cap the search ran at
	Cfg    ConfigValues
	Perf   float64
	Evals  int // configurations the session evaluated
	Probes int // fresh simulator probes; may exceed Evals when the strategy speculates
	Hits   int // probe requests served by the eval cache
}

// BatchSearch runs one bounded Harmony search per region, evaluating
// candidate batches concurrently on Machine clones. The winner per region
// is identical to what the serial Fetch/Report protocol finds.
func BatchSearch(ctx context.Context, arch *sim.Arch, regions []RegionModel, opts BatchSearchOptions) ([]BatchSearchResult, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("arcs: batch search needs at least one region")
	}
	for _, r := range regions {
		if r.Name == "" || r.Model == nil {
			return nil, fmt.Errorf("arcs: region %q has no workload model", r.Name)
		}
	}
	if opts.Cache != nil && (opts.App == "" || opts.Workload == "") {
		return nil, fmt.Errorf("arcs: eval cache requires App and Workload identity")
	}
	space := opts.Space
	if len(space.Threads) == 0 && len(space.Schedules) == 0 && len(space.Chunks) == 0 {
		space = TableISpace(arch)
	}
	if err := space.Validate(arch); err != nil {
		return nil, err
	}
	hs, err := space.HarmonySpace()
	if err != nil {
		return nil, err
	}
	proto, err := sim.NewMachine(arch)
	if err != nil {
		return nil, err
	}
	if opts.CapW > 0 {
		if err := proto.SetPowerCap(opts.CapW); err != nil {
			return nil, err
		}
	}
	effCap := opts.CapW
	if effCap == 0 { //arcslint:ignore floatcmp 0 is the uncapped sentinel, assigned verbatim
		effCap = arch.TDPW
	}
	algo := opts.Algo
	if algo == AlgoAuto {
		algo = AlgoNelderMead
	}
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}

	// Free list of private machines: taking one is the concurrency token,
	// so at most par probes run at any moment no matter how many regions
	// have batches outstanding (the pattern internal/bench/pool.go uses).
	machines := make(chan *sim.Machine, par)
	for i := 0; i < par; i++ {
		machines <- proto.Clone()
	}

	results := make([]BatchSearchResult, len(regions))
	errs := make([]error, len(regions))
	var wg sync.WaitGroup
	for ri, rm := range regions {
		wg.Add(1)
		go func(ri int, rm RegionModel) {
			defer wg.Done()
			results[ri], errs[ri] = searchRegion(ctx, rm, searchEnv{
				space: space, hs: hs, algo: algo, opts: opts,
				archName: arch.Name, effCap: effCap, par: par, machines: machines,
			})
		}(ri, rm)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // lowest region index wins: deterministic
		}
	}
	return results, nil
}

// searchEnv carries the per-call state shared by all region searches.
type searchEnv struct {
	space    SearchSpace
	hs       harmony.Space
	algo     SearchAlgo
	opts     BatchSearchOptions
	archName string
	effCap   float64
	par      int
	machines chan *sim.Machine
}

// searchRegion runs one region's batched session to convergence.
func searchRegion(ctx context.Context, rm RegionModel, env searchEnv) (BatchSearchResult, error) {
	seed := env.opts.Seed ^ hashName(rm.Name)
	var seeds []harmony.Point
	var seedPerfs []float64
	if env.opts.Seeds != nil {
		for _, ts := range env.opts.Seeds(rm.Name) {
			if p, ok := env.space.Encode(ts.Cfg); ok {
				seeds = append(seeds, p)
				seedPerfs = append(seedPerfs, ts.Perf)
			}
		}
	}
	start := env.space.DefaultPoint()
	if len(seeds) > 0 {
		start = seeds[0]
	}
	strat := newStrategy(env.hs, env.algo, start, env.opts.MaxEvals, seed, seeds, seedPerfs)
	sess := harmony.NewSession(env.hs, strat)

	var fresh, hits atomic.Int64
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return BatchSearchResult{}, err
		}
		if round > env.hs.Size()+1024 {
			return BatchSearchResult{}, fmt.Errorf("arcs: search for %q did not converge", rm.Name)
		}
		batch, done := sess.FetchBatch(env.par)
		if done {
			break
		}
		perfs := make([]float64, len(batch))
		perr := make([]error, len(batch))
		var wg sync.WaitGroup
		for i, p := range batch {
			cfg, err := env.space.Decode(p)
			if err != nil {
				return BatchSearchResult{}, err
			}
			wg.Add(1)
			go func(i int, cfg ConfigValues) {
				defer wg.Done()
				key := evalcache.Key{
					Arch: env.archName, App: env.opts.App, Workload: env.opts.Workload,
					Region: rm.Name, CapW: env.effCap, Config: cacheConfigKey(cfg),
				}
				served := false
				v, err := env.opts.Cache.Do(key, func() (float64, error) {
					served = true
					fresh.Add(1)
					return probeConfig(env.machines, rm.Model, cfg, env.opts.Objective)
				})
				if !served {
					hits.Add(1)
				}
				perfs[i], perr[i] = v, err
			}(i, cfg)
		}
		wg.Wait()
		for _, err := range perr {
			if err != nil {
				return BatchSearchResult{}, err // lowest batch index: deterministic
			}
		}
		sess.ReportBatch(perfs)
	}

	p, perf, ok := sess.Best()
	if !ok {
		return BatchSearchResult{}, fmt.Errorf("arcs: search for %q produced no result", rm.Name)
	}
	cfg, err := env.space.Decode(p)
	if err != nil {
		return BatchSearchResult{}, err
	}
	return BatchSearchResult{
		Region: rm.Name, CapW: env.effCap, Cfg: cfg, Perf: perf,
		Evals: sess.Evals(), Probes: int(fresh.Load()), Hits: int(hits.Load()),
	}, nil
}

// probeConfig borrows a machine from the free list, measures cfg, and
// evaluates the objective on the observed metrics. The region's prefix
// sums are built before the machine is taken: the first probe of a region
// builds them, and a concurrent probe of the same region waits for that
// build, without either holding a token other regions' probes could use.
func probeConfig(machines chan *sim.Machine, lm *sim.LoopModel, cfg ConfigValues, obj Objective) (float64, error) {
	lm.BuildPrefix()
	m := <-machines
	defer func() { machines <- m }()
	if err := m.SetUserFreqGHz(cfg.FreqGHz); err != nil {
		return 0, err
	}
	res, err := m.ProbeLoop(lm, omp.Resolve(m.Arch(), omp.ICV{
		NumThreads: cfg.Threads, Schedule: cfg.Schedule, Chunk: cfg.Chunk, Bind: cfg.Bind,
	}))
	if err != nil {
		return 0, err
	}
	return obj.Eval(ompt.Metrics{
		TimeS:       res.TimeS,
		EnergyJ:     res.EnergyJ,
		AvgPowerW:   res.AvgPowerW,
		DRAMEnergyJ: res.DRAMEnergyJ,
	})
}

// cacheConfigKey renders a configuration's canonical cache-key form. It is
// injective over decoded ConfigValues (plain numeric fields, '/'-joined)
// unlike the human-oriented String form.
func cacheConfigKey(c ConfigValues) string {
	return fmt.Sprintf("%d/%d/%d/%g/%d", c.Threads, int(c.Schedule), c.Chunk, c.FreqGHz, int(c.Bind))
}

// newStrategy builds the Harmony strategy for one search. Shared by the
// Tuner's per-region sessions and BatchSearch. seeds are transfer points
// from neighbouring contexts; only the surrogate strategy consumes them
// (when non-empty, the first seed also becomes its start point, so the
// local refinement begins from the best imported guess). seedPerfs,
// aligned with seeds, carries each seed's source-context perf so the
// surrogate can verify a transfer in one probe (0 entries or a nil slice
// disable the verified exit).
func newStrategy(hs harmony.Space, algo SearchAlgo, start harmony.Point, maxEvals int, seed int64, seeds []harmony.Point, seedPerfs []float64) harmony.Strategy {
	switch algo {
	case AlgoExhaustive:
		return harmony.NewExhaustive(hs)
	case AlgoPRO:
		return harmony.NewPRO(hs, start, maxEvals, seed)
	case AlgoRandom:
		if maxEvals <= 0 {
			maxEvals = 90
		}
		return harmony.NewRandom(hs, maxEvals, seed)
	case AlgoCoordinate:
		return harmony.NewCoordinateDescent(hs, start, maxEvals)
	case AlgoSurrogate:
		for _, pf := range seedPerfs {
			if pf > 0 {
				return harmony.NewSurrogateTransfer(hs, start, maxEvals, seed, seeds, seedPerfs)
			}
		}
		return harmony.NewSurrogate(hs, start, maxEvals, seed, seeds)
	default: // AlgoNelderMead and AlgoAuto
		return harmony.NewNelderMead(hs, start, maxEvals)
	}
}
