package arcs

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

	"arcs/internal/evalcache"
	"arcs/internal/harmony"
	"arcs/internal/omp"
	"arcs/internal/ompt"
	"arcs/internal/sim"
)

// This file implements direct searches: instead of replaying an
// application step loop and tuning through the OMPT event path (one
// serial invocation per candidate), BatchSearch probes each region's loop
// model straight against Machine clones. Each region runs one serial
// Harmony session (Fetch, probe, Report), and the regions of a call
// search concurrently, so a region's trajectory is the serial protocol's
// whatever the parallelism. Results are memoised in an optional eval
// cache keyed by (arch, app, workload, region, cap, config), making
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

	// Parallelism bounds concurrent probes across all regions; <=1
	// probes one at a time. Each probe borrows a private Machine clone.
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
	Probes int // fresh simulator probes: Evals - Hits
	Hits   int // evaluations served by the eval cache
}

// BatchSearch runs one bounded serial Harmony search per region, the
// regions concurrently, probing on Machine clones. A region's winner and
// evaluation count do not depend on Parallelism.
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
	// are searching (the pattern internal/bench/pool.go uses).
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
				archName: arch.Name, effCap: effCap, machines: machines,
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
	machines chan *sim.Machine
}

// searchRegion runs one region's session to convergence, evaluating each
// fetched configuration before fetching the next.
func searchRegion(ctx context.Context, rm RegionModel, env searchEnv) (BatchSearchResult, error) {
	var seeds []TransferSeed
	if env.opts.Seeds != nil {
		seeds = env.opts.Seeds(rm.Name)
	}
	sess := newSession(env.space, env.hs, env.algo, rm.Name, env.opts.Seed, env.opts.MaxEvals, nil, seeds)

	hits := 0
	for {
		if err := ctx.Err(); err != nil {
			return BatchSearchResult{}, err
		}
		p, done := sess.Fetch()
		if done {
			break
		}
		cfg, err := env.space.Decode(p)
		if err != nil {
			return BatchSearchResult{}, err
		}
		var perf float64
		if env.opts.Cache == nil {
			perf, err = probeConfig(env.machines, rm.Model, cfg, env.opts.Objective)
		} else {
			key := evalcache.Key{
				Arch: env.archName, App: env.opts.App, Workload: env.opts.Workload,
				Region: rm.Name, CapW: env.effCap, Config: cacheConfigKey(cfg),
			}
			served := false
			perf, err = env.opts.Cache.Do(key, func() (float64, error) {
				served = true
				return probeConfig(env.machines, rm.Model, cfg, env.opts.Objective)
			})
			if !served {
				hits++
			}
		}
		if err != nil {
			return BatchSearchResult{}, err
		}
		sess.Report(perf)
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
		Evals: sess.Evals(), Probes: sess.Evals() - hits, Hits: hits,
	}, nil
}

// probeConfig borrows a machine from the free list, measures cfg, and
// evaluates the objective on the observed metrics. The region's prefix
// sums are built before the machine is taken: the first probe of a region
// builds them, and a concurrent probe of the same region (another search
// sharing the model) waits for that build, without either holding a token
// other regions' probes could use.
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
// unlike the human-oriented String form. Its bytes are those of
// fmt's "%d/%d/%d/%g/%d" over the five fields.
func cacheConfigKey(c ConfigValues) string {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(c.Threads), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Schedule), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Chunk), 10)
	b = append(b, '/')
	b = strconv.AppendFloat(b, c.FreqGHz, 'g', -1, 64)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Bind), 10)
	return string(b)
}

// newSession builds the Active Harmony session for one region's search,
// for the Tuner and BatchSearch alike. seed is the run's seed; the
// region's name perturbs it, so regions of one run search apart. seeds
// are transfer seeds from neighbouring contexts, best first; those the
// space cannot encode are dropped, and only the surrogate strategy
// consumes the rest, each positive Perf letting it verify a transfer in
// one probe. The search starts at warm (a served nearest-cap point) when
// it is set, else at the first seed, so the local refinement begins from
// the best imported guess, else at the space's default point.
func newSession(space SearchSpace, hs harmony.Space, algo SearchAlgo, region string, seed int64, maxEvals int, warm harmony.Point, seeds []TransferSeed) *harmony.Session {
	var pts []harmony.Point
	var perfs []float64
	for _, ts := range seeds {
		if p, ok := space.Encode(ts.Cfg); ok {
			pts = append(pts, p)
			perfs = append(perfs, ts.Perf)
		}
	}
	start := warm
	if start == nil {
		start = space.DefaultPoint()
		if len(pts) > 0 {
			start = pts[0]
		}
	}
	seed ^= hashName(region)
	var strat harmony.Strategy
	switch algo {
	case AlgoExhaustive:
		strat = harmony.NewExhaustive(hs)
	case AlgoPRO:
		strat = harmony.NewPRO(hs, start, maxEvals, seed)
	case AlgoRandom:
		if maxEvals <= 0 {
			maxEvals = 90
		}
		strat = harmony.NewRandom(hs, maxEvals, seed)
	case AlgoCoordinate:
		strat = harmony.NewCoordinateDescent(hs, start, maxEvals)
	case AlgoSurrogate:
		strat = harmony.NewSurrogate(hs, start, maxEvals, seed, pts, perfs)
	default: // AlgoNelderMead and AlgoAuto
		strat = harmony.NewNelderMead(hs, start, maxEvals)
	}
	return harmony.NewSession(hs, strat)
}

func hashName(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}
