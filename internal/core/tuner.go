package arcs

import (
	"fmt"
	"hash/fnv"
	"sort"

	"arcs/internal/apex"
	"arcs/internal/evalcache"
	"arcs/internal/harmony"
	"arcs/internal/ompt"
	"arcs/internal/sim"
)

// Strategy selects how ARCS tunes, following §III-B of the paper.
type Strategy int

const (
	// StrategyOnline searches and exploits within a single execution
	// (Nelder-Mead by default); search overhead lands in the measured run.
	StrategyOnline Strategy = iota
	// StrategyOfflineSearch is the first, unmeasured execution of the
	// offline method: exhaustive search, saving the best per region.
	StrategyOfflineSearch
	// StrategyOfflineReplay is the second, measured execution: it reads
	// the history file once and applies the stored configuration to every
	// region invocation.
	StrategyOfflineReplay
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyOnline:
		return "ARCS-Online"
	case StrategyOfflineSearch:
		return "ARCS-Offline(search)"
	case StrategyOfflineReplay:
		return "ARCS-Offline"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// SearchAlgo selects the Active Harmony strategy backing a tuning session.
type SearchAlgo int

const (
	// AlgoAuto picks the paper's pairing: Nelder-Mead online, exhaustive
	// offline.
	AlgoAuto SearchAlgo = iota
	// AlgoNelderMead forces simplex search.
	AlgoNelderMead
	// AlgoExhaustive forces full enumeration.
	AlgoExhaustive
	// AlgoPRO forces Parallel Rank Order.
	AlgoPRO
	// AlgoRandom forces random sampling (ablation baseline).
	AlgoRandom
	// AlgoCoordinate forces greedy coordinate descent (axis sweeps).
	AlgoCoordinate
	// AlgoSurrogate forces model-guided search: a regression-forest
	// surrogate proposing expected-improvement candidates, with transfer
	// seeding from neighbouring contexts when a NeighborHistory is
	// available, and a Nelder-Mead refinement tail.
	AlgoSurrogate
)

// String implements fmt.Stringer.
func (a SearchAlgo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoNelderMead:
		return "nelder-mead"
	case AlgoExhaustive:
		return "exhaustive"
	case AlgoPRO:
		return "pro"
	case AlgoRandom:
		return "random"
	case AlgoCoordinate:
		return "coordinate-descent"
	case AlgoSurrogate:
		return "surrogate"
	default:
		return fmt.Sprintf("SearchAlgo(%d)", int(a))
	}
}

// ParseSearchAlgo maps a flag value to a SearchAlgo, accepting exactly
// the String forms.
func ParseSearchAlgo(s string) (SearchAlgo, error) {
	for _, a := range []SearchAlgo{
		AlgoAuto, AlgoNelderMead, AlgoExhaustive, AlgoPRO, AlgoRandom, AlgoCoordinate, AlgoSurrogate,
	} {
		if s == a.String() {
			return a, nil
		}
	}
	return AlgoAuto, fmt.Errorf("arcs: unknown search algorithm %q", s)
}

// Options configures a Tuner.
type Options struct {
	Strategy  Strategy
	Space     SearchSpace // zero value selects TableISpace(arch)
	Objective Objective
	Algo      SearchAlgo
	MaxEvals  int   // search budget per region (0 = algorithm default)
	Seed      int64 // perturbs stochastic algorithms per run

	// History and Key connect search and replay runs. Key builds the
	// context key for a region (app, workload, power cap). Both are
	// required for the offline strategies.
	History History
	Key     func(region string) HistoryKey

	// WarmStart lets the online strategy consult History before searching:
	// an exact hit is applied directly (the paper's "use the saved values
	// instead of repeating the search process", with zero evaluations),
	// and when History implements FallbackHistory a nearest-cap hit seeds
	// the search at the served configuration instead of the default point.
	// Requires History and Key. This is how a shared knowledge store
	// (internal/store, cmd/arcsd) amortises searches across runs.
	WarmStart bool

	// ReTuneOnCapChange makes the tuner restart its searches (and re-read
	// the history, whose Key may be cap-dependent) whenever the package
	// power cap changes mid-run — the paper's §II scenario where "the
	// resource manager may ... adjust their power level dynamically".
	ReTuneOnCapChange bool

	// TuneDVFS adds the §VII future-work DVFS dimension (per-region
	// frequency requests from the architecture's ladder) to the search
	// space, when the runtime's control plane supports it.
	TuneDVFS bool

	// TuneBind adds the thread-placement dimension (OMP_PROC_BIND
	// spread/close) to the search space.
	TuneBind bool

	// MinRegionS enables the paper's future-work selective tuning: a
	// region whose first measured invocation is shorter than this stops
	// being tuned (no further ICV calls, hence no configuration-change
	// overhead). Zero tunes every region, as the published ARCS does.
	MinRegionS float64

	// EvalCache, when non-nil, memoises measured objective values by
	// (arch, app, workload, region, cap, config): trial points whose value
	// is already cached are reported to the session without re-executing
	// the region under them, and fresh measurements are written back.
	// Requires Key (the cache reuses its app/workload/cap context). Leave
	// nil when measurements are noisy — replaying one run's sample as
	// another run's truth would bake the noise in.
	EvalCache *evalcache.Cache
}

// Tuner is the ARCS policy instance. Create it with New, attach the APEX
// instance to a runtime via apex.NewTool, run the application, then call
// Finish to persist search results.
type Tuner struct {
	apx  *apex.Instance
	arch *sim.Arch
	opts Options
	hs   harmony.Space

	regions map[string]*regionState
	ids     []apex.PolicyID

	lastCapW float64 // last observed package cap (ReTuneOnCapChange)
	capSeen  bool
}

type regionState struct {
	name string

	sess      *harmony.Session
	pending   bool
	converged bool
	skipped   bool
	calls     int

	current ConfigValues // configuration applied to the in-flight invocation

	bestCfg  ConfigValues
	bestPerf float64
	hasBest  bool

	replayCfg ConfigValues
	replayOK  bool
	lookedUp  bool
	warmSeed  harmony.Point   // nearest-cap warm-start point (nil = none)
	seedPts   []harmony.Point // transfer seeds from neighbouring contexts
	seedPerfs []float64       // each seed's source-context perf (0 = unknown)
}

// DefaultTransferSeeds bounds how many neighbouring contexts seed a
// surrogate search: the nearest few dominate the transfer value, and each
// extra seed is one more forced probe on a context that may differ.
const DefaultTransferSeeds = 4

// New creates a Tuner and registers its policies with the APEX instance.
func New(apx *apex.Instance, arch *sim.Arch, opts Options) (*Tuner, error) {
	if apx == nil || arch == nil {
		return nil, fmt.Errorf("arcs: nil apex instance or architecture")
	}
	if len(opts.Space.Threads) == 0 && len(opts.Space.Schedules) == 0 && len(opts.Space.Chunks) == 0 {
		opts.Space = TableISpace(arch)
	}
	if opts.TuneDVFS && !opts.Space.HasDVFS() {
		opts.Space = opts.Space.WithDVFS(arch)
	}
	if opts.TuneBind && !opts.Space.HasBind() {
		opts.Space = opts.Space.WithBind()
	}
	if err := opts.Space.Validate(arch); err != nil {
		return nil, err
	}
	switch opts.Strategy {
	case StrategyOnline:
		if opts.WarmStart && (opts.History == nil || opts.Key == nil) {
			return nil, fmt.Errorf("arcs: WarmStart requires History and Key")
		}
	case StrategyOfflineSearch, StrategyOfflineReplay:
		if opts.History == nil || opts.Key == nil {
			return nil, fmt.Errorf("arcs: %v requires History and Key", opts.Strategy)
		}
	default:
		return nil, fmt.Errorf("arcs: unknown strategy %d", int(opts.Strategy))
	}
	if opts.EvalCache != nil && opts.Key == nil {
		return nil, fmt.Errorf("arcs: EvalCache requires Key")
	}
	hs, err := opts.Space.HarmonySpace()
	if err != nil {
		return nil, err
	}
	t := &Tuner{apx: apx, arch: arch, opts: opts, hs: hs, regions: make(map[string]*regionState)}
	t.ids = append(t.ids,
		apx.RegisterPolicy(apex.TimerStart, t.onStart),
		apx.RegisterPolicy(apex.TimerStop, t.onStop),
	)
	return t, nil
}

// Close deregisters the tuner's policies.
func (t *Tuner) Close() {
	for _, id := range t.ids {
		t.apx.DeregisterPolicy(id)
	}
	t.ids = nil
}

// region interns per-region state.
func (t *Tuner) region(name string) *regionState {
	rs, ok := t.regions[name]
	if !ok {
		rs = &regionState{name: name}
		t.regions[name] = rs
	}
	return rs
}

// resolvedAlgo maps AlgoAuto to the paper's strategy pairing.
func (t *Tuner) resolvedAlgo() SearchAlgo {
	algo := t.opts.Algo
	if algo == AlgoAuto {
		if t.opts.Strategy == StrategyOfflineSearch {
			return AlgoExhaustive
		}
		return AlgoNelderMead
	}
	return algo
}

// newSession builds the Active Harmony session for one region. A
// warm-started region begins its search at the served nearest-cap
// configuration instead of the default point; transfer seeds collected by
// warmLookup flow to the surrogate strategy.
func (t *Tuner) newSession(name string, rs *regionState) *harmony.Session {
	algo := t.resolvedAlgo()
	start := t.opts.Space.DefaultPoint()
	var seeds []harmony.Point
	var seedPerfs []float64
	if rs != nil {
		seeds, seedPerfs = rs.seedPts, rs.seedPerfs
		switch {
		case rs.warmSeed != nil:
			start = rs.warmSeed
		case len(seeds) > 0:
			start = seeds[0]
		}
	}
	seed := t.opts.Seed ^ hashName(name)
	return harmony.NewSession(t.hs, newStrategy(t.hs, algo, start, t.opts.MaxEvals, seed, seeds, seedPerfs))
}

func hashName(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}

// evalKey builds the eval-cache key for one (region, configuration) pair,
// reusing Key's app/workload/cap context. The cap MUST be part of the key:
// the same configuration performs very differently at 55 W and at TDP.
func (t *Tuner) evalKey(region string, cfg ConfigValues) evalcache.Key {
	hk := t.opts.Key(region)
	return evalcache.Key{
		Arch:     t.arch.Name,
		App:      hk.App,
		Workload: hk.Workload,
		Region:   region,
		CapW:     hk.CapW,
		Config:   cacheConfigKey(cfg),
	}
}

// onStart is the TimerStart policy: it chooses and applies the
// configuration for the imminent region invocation.
func (t *Tuner) onStart(ctx apex.Context) {
	if ctx.CP == nil {
		return
	}
	if t.opts.ReTuneOnCapChange {
		t.checkCapChange(ctx)
	}
	rs := t.region(ctx.Timer)
	if rs.skipped {
		return
	}
	switch t.opts.Strategy {
	case StrategyOfflineReplay:
		if !rs.lookedUp {
			rs.lookedUp = true
			cfg, ok := t.opts.History.Load(t.opts.Key(ctx.Timer))
			rs.replayCfg, rs.replayOK = cfg, ok
			if !ok {
				t.apx.IncrCounter("arcs.history_misses", 1)
			}
		}
		if rs.replayOK {
			t.apply(ctx.CP, rs.replayCfg, rs)
		}
	default: // Online and OfflineSearch both search
		if rs.sess == nil && t.opts.Strategy == StrategyOnline && t.opts.WarmStart && !rs.lookedUp {
			t.warmLookup(ctx.Timer, rs)
		}
		if rs.replayOK {
			// Warm exact hit: serve the stored configuration and never
			// open a search session for this region.
			if !rs.converged {
				rs.converged = true
				t.apx.IncrCounter("arcs.warm_hits", 1)
			}
			t.apply(ctx.CP, rs.replayCfg, rs)
			return
		}
		if rs.sess == nil {
			rs.sess = t.newSession(ctx.Timer, rs)
		}
		p, done := rs.sess.Fetch()
		// Drain trial points whose value the eval cache already knows:
		// report them straight to the session, so the region only ever
		// executes under configurations nobody has measured before. The
		// guard bounds the drain against a pathological cache (a session
		// proposes at most Size distinct points plus replayed duplicates).
		if t.opts.EvalCache != nil {
			for guard := 0; !done && guard < t.hs.Size()+64; guard++ {
				cfg, err := t.opts.Space.Decode(p)
				if err != nil {
					break
				}
				v, ok := t.opts.EvalCache.Get(t.evalKey(ctx.Timer, cfg))
				if !ok {
					break
				}
				t.apx.IncrCounter("arcs.evalcache_hits", 1)
				rs.sess.Report(v)
				if !rs.hasBest || v < rs.bestPerf {
					rs.bestCfg = cfg
					rs.bestPerf = v
					rs.hasBest = true
				}
				p, done = rs.sess.Fetch()
			}
		}
		cfg, err := t.opts.Space.Decode(p)
		if err != nil {
			t.apx.IncrCounter("arcs.decode_errors", 1)
			return
		}
		if done {
			if !rs.converged {
				rs.converged = true
				t.apx.IncrCounter("arcs.converged_regions", 1)
			}
			t.apply(ctx.CP, cfg, rs)
			return
		}
		rs.pending = true
		t.apx.IncrCounter("arcs.trials", 1)
		t.apply(ctx.CP, cfg, rs)
	}
}

// checkCapChange restarts all tuning state when the package power limit
// moved: sessions are discarded (the optimum is cap-dependent, §II) and
// replay lookups are repeated against the new cap's history key.
func (t *Tuner) checkCapChange(ctx apex.Context) {
	cap := ctx.Apex.PowerCap()
	if cap == 0 { //arcslint:ignore floatcmp 0 is the no-power-source sentinel
		return // no power source attached
	}
	if !t.capSeen {
		t.capSeen = true
		t.lastCapW = cap
		return
	}
	if cap == t.lastCapW { //arcslint:ignore floatcmp change detection on values read verbatim from one source
		return
	}
	t.lastCapW = cap
	t.apx.IncrCounter("arcs.cap_changes", 1)
	for _, rs := range t.regions {
		rs.sess = nil
		rs.pending = false
		rs.converged = false
		rs.lookedUp = false
		rs.replayOK = false
		rs.warmSeed = nil
		rs.seedPts, rs.seedPerfs = nil, nil
	}
}

// warmLookup consults the history once per region before an online search
// starts: an exact hit replaces the search outright; a nearest-cap hit
// becomes the search's starting point.
func (t *Tuner) warmLookup(name string, rs *regionState) {
	rs.lookedUp = true
	k := t.opts.Key(name)
	if cfg, ok := t.opts.History.Load(k); ok {
		rs.replayCfg, rs.replayOK = cfg, true
		return
	}
	// Surrogate searches take every nearby context as a transfer seed, not
	// just the single nearest cap: the model learns from all of them.
	if t.resolvedAlgo() == AlgoSurrogate {
		if nh, ok := t.opts.History.(NeighborHistory); ok {
			for _, sd := range TransferSeeds(k, nh.LoadNeighbors(k, DefaultTransferSeeds)) {
				if p, enc := t.opts.Space.Encode(sd.Cfg); enc {
					rs.seedPts = append(rs.seedPts, p)
					rs.seedPerfs = append(rs.seedPerfs, sd.Perf)
				}
			}
			if len(rs.seedPts) > 0 {
				t.apx.IncrCounter("arcs.transfer_seeds", float64(len(rs.seedPts)))
			}
		}
	}
	if fh, ok := t.opts.History.(FallbackHistory); ok {
		if cfg, _, ok := fh.LoadNearest(k); ok {
			if p, enc := t.opts.Space.Encode(cfg); enc {
				rs.warmSeed = p
				t.apx.IncrCounter("arcs.warm_seeds", 1)
				return
			}
		}
	}
	if len(rs.seedPts) == 0 {
		t.apx.IncrCounter("arcs.warm_misses", 1)
	}
}

// apply sets the ICVs through the control plane — the two runtime calls
// whose cost is the paper's configuration-changing overhead.
func (t *Tuner) apply(cp ompt.ControlPlane, cfg ConfigValues, rs *regionState) {
	if err := cp.SetNumThreads(cfg.Threads); err != nil {
		t.apx.IncrCounter("arcs.apply_errors", 1)
		return
	}
	if err := cp.SetSchedule(cfg.Schedule, cfg.Chunk); err != nil {
		t.apx.IncrCounter("arcs.apply_errors", 1)
		return
	}
	if t.opts.Space.HasDVFS() {
		fc, ok := cp.(ompt.FreqController)
		if !ok {
			t.apx.IncrCounter("arcs.dvfs_unsupported", 1)
		} else if err := fc.SetFreqGHz(cfg.FreqGHz); err != nil {
			t.apx.IncrCounter("arcs.apply_errors", 1)
			return
		}
	}
	if t.opts.Space.HasBind() {
		bc, ok := cp.(ompt.BindController)
		if !ok {
			t.apx.IncrCounter("arcs.bind_unsupported", 1)
		} else if err := bc.SetProcBind(cfg.Bind); err != nil {
			t.apx.IncrCounter("arcs.apply_errors", 1)
			return
		}
	}
	rs.current = cfg
}

// onStop is the TimerStop policy: it reports the measured objective to the
// region's tuning session.
func (t *Tuner) onStop(ctx apex.Context) {
	rs := t.region(ctx.Timer)
	rs.calls++
	if rs.pending {
		rs.pending = false
		perf, err := t.opts.Objective.Eval(ctx.Metrics)
		if err != nil {
			t.apx.IncrCounter("arcs.objective_errors", 1)
			perf = ctx.Metrics.TimeS // fall back to time
		}
		rs.sess.Report(perf)
		if t.opts.EvalCache != nil && err == nil {
			t.opts.EvalCache.Put(t.evalKey(ctx.Timer, rs.current), perf)
		}
		if !rs.hasBest || perf < rs.bestPerf {
			rs.bestCfg = rs.current
			rs.bestPerf = perf
			rs.hasBest = true
		}
	}
	// Selective tuning compares the region's intrinsic time (overheads
	// excluded): the overhead is exactly what skipping avoids. A skipped
	// region inherits whatever ICVs the previous region set — cheap, but
	// only safe when neighbouring configurations are benign (they are
	// during offline replay; during online search they can be terrible
	// trial points, which the selective-tuning ablation quantifies).
	intrinsic := ctx.Metrics.TimeS - ctx.Metrics.OverheadS
	if t.opts.MinRegionS > 0 && !rs.skipped && rs.calls == 1 &&
		intrinsic < t.opts.MinRegionS {
		rs.skipped = true
		t.apx.IncrCounter("arcs.skipped_regions", 1)
	}
}

// Finish persists the per-region best configurations to the history (for
// search strategies). The paper: "When the program completes, the policy
// saves the best parameters found during the search."
func (t *Tuner) Finish() error {
	if t.opts.Strategy == StrategyOfflineReplay {
		return nil
	}
	if t.opts.History == nil || t.opts.Key == nil {
		return nil
	}
	for name, rs := range t.regions {
		if rs.sess == nil {
			continue
		}
		if p, perf, ok := rs.sess.Best(); ok {
			cfg, err := t.opts.Space.Decode(p)
			if err != nil {
				return err
			}
			t.opts.History.Save(t.opts.Key(name), cfg, perf)
		}
	}
	return nil
}

// RegionReport describes what ARCS decided for one region.
type RegionReport struct {
	Region    string
	Config    ConfigValues
	Perf      float64
	Calls     int
	Converged bool
	Skipped   bool
	Evals     int
}

// Report returns per-region tuning outcomes sorted by region name; for
// replay runs the config is the one loaded from history.
func (t *Tuner) Report() []RegionReport {
	names := make([]string, 0, len(t.regions))
	for n := range t.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]RegionReport, 0, len(names))
	for _, n := range names {
		rs := t.regions[n]
		r := RegionReport{Region: n, Calls: rs.calls, Converged: rs.converged, Skipped: rs.skipped}
		if rs.sess != nil {
			r.Evals = rs.sess.Evals()
			if p, perf, ok := rs.sess.Best(); ok {
				if cfg, err := t.opts.Space.Decode(p); err == nil {
					r.Config = cfg
					r.Perf = perf
				}
			}
		} else if rs.replayOK {
			r.Config = rs.replayCfg
			r.Converged = true
		}
		out = append(out, r)
	}
	return out
}
