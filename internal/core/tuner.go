package arcs

import (
	"fmt"
	"sort"

	"arcs/internal/apex"
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
	// seeding from neighbouring contexts when a History is set, and a
	// Nelder-Mead refinement tail.
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
	// and otherwise the history's nearest-cap hit seeds the search at the
	// served configuration instead of the default point.
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

	// replayCfg, when replayOK, is served on every invocation without a
	// session step: the history's configuration for the region, or the
	// best of its converged search.
	replayCfg ConfigValues
	replayOK  bool
	lookedUp  bool
	warmSeed  harmony.Point  // nearest-cap warm-start point (nil = none)
	seeds     []TransferSeed // transfer seeds the space can encode
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
			t.apply(ctx.CP, rs.replayCfg)
		}
	default: // Online and OfflineSearch both search
		if rs.sess == nil && t.opts.Strategy == StrategyOnline && t.opts.WarmStart && !rs.lookedUp {
			t.warmLookup(ctx.Timer, rs)
		}
		if rs.replayOK {
			// Warm exact hit, or a search that has converged: serve the
			// stored configuration without touching a session.
			if !rs.converged {
				rs.converged = true
				t.apx.IncrCounter("arcs.warm_hits", 1)
			}
			t.apply(ctx.CP, rs.replayCfg)
			return
		}
		if rs.sess == nil {
			rs.sess = newSession(t.opts.Space, t.hs, t.resolvedAlgo(), ctx.Timer,
				t.opts.Seed, t.opts.MaxEvals, rs.warmSeed, rs.seeds)
		}
		p, done := rs.sess.Fetch()
		cfg, err := t.opts.Space.Decode(p)
		if err != nil {
			t.apx.IncrCounter("arcs.decode_errors", 1)
			return
		}
		if done {
			// A converged session's best never changes: keep it decoded,
			// so later invocations take the replay path above.
			rs.converged = true
			rs.replayCfg, rs.replayOK = cfg, true
			t.apx.IncrCounter("arcs.converged_regions", 1)
			t.apply(ctx.CP, cfg)
			return
		}
		rs.pending = true
		t.apx.IncrCounter("arcs.trials", 1)
		t.apply(ctx.CP, cfg)
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
		rs.seeds = nil
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
		for _, sd := range TransferSeeds(k, t.opts.History.LoadNeighbors(k, DefaultTransferSeeds)) {
			if _, enc := t.opts.Space.Encode(sd.Cfg); enc {
				rs.seeds = append(rs.seeds, sd)
			}
		}
		if len(rs.seeds) > 0 {
			t.apx.IncrCounter("arcs.transfer_seeds", float64(len(rs.seeds)))
		}
	}
	if cfg, _, ok := t.opts.History.LoadNearest(k); ok {
		if p, enc := t.opts.Space.Encode(cfg); enc {
			rs.warmSeed = p
			t.apx.IncrCounter("arcs.warm_seeds", 1)
			return
		}
	}
	if len(rs.seeds) == 0 {
		t.apx.IncrCounter("arcs.warm_misses", 1)
	}
}

// apply sets the ICVs through the control plane — the two runtime calls
// whose cost is the paper's configuration-changing overhead.
func (t *Tuner) apply(cp ompt.ControlPlane, cfg ConfigValues) {
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
		}
	}
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
// search strategies), in region-name order. The paper: "When the program
// completes, the policy saves the best parameters found during the
// search."
func (t *Tuner) Finish() error {
	if t.opts.Strategy == StrategyOfflineReplay {
		return nil
	}
	if t.opts.History == nil || t.opts.Key == nil {
		return nil
	}
	for _, name := range t.regionNames() {
		rs := t.regions[name]
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
	names := t.regionNames()
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

// regionNames returns the names of the regions seen so far, sorted.
func (t *Tuner) regionNames() []string {
	names := make([]string, 0, len(t.regions))
	for n := range t.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
