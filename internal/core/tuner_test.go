package arcs

import (
	"os"
	"sort"
	"testing"

	"arcs/internal/apex"
	"arcs/internal/kernels"
	"arcs/internal/omp"
	"arcs/internal/ompt"
	"arcs/internal/sim"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// imbalancedLoop is a region where the default config (32 threads static)
// is clearly suboptimal: ramped imbalance plus SMT-unfriendly cache use.
func imbalancedLoop() *sim.LoopModel {
	return &sim.LoopModel{
		Name:          "imbalanced",
		Iters:         600,
		CompNSPerIter: 80000,
		Imbalance:     sim.Imbalance{Kind: sim.Ramp, Param: 1.4},
		Mem: sim.CacheSpec{
			AccessesPerIter:  800,
			BytesPerIter:     4096,
			TemporalWindowKB: 28,
			FootprintMB:      16,
			BoundaryLines:    2,
			L3Contention:     0.4,
			MLP:              4,
		},
	}
}

type rig struct {
	mach *sim.Machine
	rt   *omp.Runtime
	apx  *apex.Instance
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m, err := sim.NewMachine(sim.Crill())
	if err != nil {
		t.Fatal(err)
	}
	rt := omp.NewRuntime(m)
	apx := apex.New()
	apx.SetPowerSource(m)
	rt.RegisterTool(apex.NewTool(apx))
	return &rig{mach: m, rt: rt, apx: apx}
}

// runApp invokes each named region once per step.
func (r *rig) runApp(t *testing.T, steps int, regions map[string]*sim.LoopModel) float64 {
	t.Helper()
	t0 := r.mach.Now()
	names := []string{"alpha", "beta"} // deterministic order
	for step := 0; step < steps; step++ {
		for _, n := range names {
			lm, ok := regions[n]
			if !ok {
				continue
			}
			if _, err := r.rt.Run(r.rt.Region(n, lm)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r.mach.Now() - t0
}

func key(app string) func(string) HistoryKey {
	return func(region string) HistoryKey {
		return HistoryKey{App: app, Workload: "test", CapW: 115, Region: region}
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t)
	arch := r.mach.Arch()
	if _, err := New(nil, arch, Options{}); err == nil {
		t.Errorf("nil apex must fail")
	}
	if _, err := New(r.apx, nil, Options{}); err == nil {
		t.Errorf("nil arch must fail")
	}
	if _, err := New(r.apx, arch, Options{Strategy: StrategyOfflineReplay}); err == nil {
		t.Errorf("offline without history must fail")
	}
	if _, err := New(r.apx, arch, Options{Strategy: Strategy(42)}); err == nil {
		t.Errorf("unknown strategy must fail")
	}
	bad := Options{Space: SearchSpace{Threads: []int{999}, Schedules: []ompt.ScheduleKind{ompt.ScheduleStatic}, Chunks: []int{1}}}
	if _, err := New(r.apx, arch, bad); err == nil {
		t.Errorf("invalid space must fail")
	}
}

func TestOnlineTunerImprovesImbalancedRegion(t *testing.T) {
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}

	// Baseline: default configuration, no tool attached.
	base := newRig(t)
	baseT := base.runApp(t, 60, regions)

	// Online ARCS.
	tuned := newRig(t)
	tuner, err := New(tuned.apx, tuned.mach.Arch(), Options{Strategy: StrategyOnline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tunedT := tuned.runApp(t, 60, regions)
	if err := tuner.Finish(); err != nil {
		t.Fatal(err)
	}

	if tunedT >= baseT {
		t.Errorf("online ARCS should beat default on an imbalanced region: %v vs %v", tunedT, baseT)
	}
	reps := tuner.Report()
	if len(reps) != 1 || reps[0].Region != "alpha" {
		t.Fatalf("report = %+v", reps)
	}
	if !reps[0].Converged {
		t.Errorf("online search should converge within 60 invocations")
	}
	if reps[0].Evals < 5 {
		t.Errorf("suspiciously few evaluations: %d", reps[0].Evals)
	}
	if def := (ConfigValues{}); reps[0].Config == def {
		t.Errorf("tuned config should differ from default for this region")
	}
}

func TestOfflineSearchThenReplay(t *testing.T) {
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}
	hist := NewMemHistory()

	// Search run: exhaustive, unmeasured.
	search := newRig(t)
	st, err := New(search.apx, search.mach.Arch(), Options{
		Strategy: StrategyOfflineSearch, History: hist, Key: key("app"),
	})
	if err != nil {
		t.Fatal(err)
	}
	space := TableISpace(search.mach.Arch())
	search.runApp(t, space.Size()+5, regions)
	if err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 1 {
		t.Fatalf("history entries = %d, want 1", hist.Len())
	}

	// Baseline.
	base := newRig(t)
	baseT := base.runApp(t, 40, regions)

	// Replay run: measured.
	replay := newRig(t)
	rt2, err := New(replay.apx, replay.mach.Arch(), Options{
		Strategy: StrategyOfflineReplay, History: hist, Key: key("app"),
	})
	if err != nil {
		t.Fatal(err)
	}
	replayT := replay.runApp(t, 40, regions)
	if err := rt2.Finish(); err != nil {
		t.Fatal(err)
	}

	if replayT >= baseT {
		t.Errorf("offline replay should beat default: %v vs %v", replayT, baseT)
	}
	// Replay must outperform online on the same region count: no search
	// overhead during the measured run.
	online := newRig(t)
	ot, err := New(online.apx, online.mach.Arch(), Options{Strategy: StrategyOnline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	onlineT := online.runApp(t, 40, regions)
	_ = ot.Finish()
	if replayT > onlineT {
		t.Errorf("offline replay (%v) should not be slower than online (%v)", replayT, onlineT)
	}

	reps := rt2.Report()
	if len(reps) != 1 || !reps[0].Converged {
		t.Errorf("replay report = %+v", reps)
	}
}

func TestReplayHistoryMiss(t *testing.T) {
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}
	r := newRig(t)
	tuner, err := New(r.apx, r.mach.Arch(), Options{
		Strategy: StrategyOfflineReplay, History: NewMemHistory(), Key: key("app"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.runApp(t, 3, regions)
	if got := r.apx.Counter("arcs.history_misses"); got != 1 {
		t.Errorf("history misses = %v, want 1 (looked up once)", got)
	}
	_ = tuner.Finish()
	// With no history, regions run at the default config.
	reps := tuner.Report()
	if reps[0].Config != (ConfigValues{}) {
		t.Errorf("missing history should leave default config, got %v", reps[0].Config)
	}
}

func TestSelectiveTuningSkipsTinyRegions(t *testing.T) {
	tiny := &sim.LoopModel{
		Name: "tiny", Iters: 64, CompNSPerIter: 2000,
		Mem: sim.CacheSpec{AccessesPerIter: 10, BytesPerIter: 64, TemporalWindowKB: 4, FootprintMB: 1, MLP: 4},
	}
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop(), "beta": tiny}

	r := newRig(t)
	tuner, err := New(r.apx, r.mach.Arch(), Options{
		Strategy: StrategyOnline, Seed: 3, MinRegionS: 0.0005,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.runApp(t, 30, regions)
	_ = tuner.Finish()

	reps := tuner.Report()
	byName := map[string]RegionReport{}
	for _, rep := range reps {
		byName[rep.Region] = rep
	}
	if !byName["beta"].Skipped {
		t.Errorf("tiny region should be skipped: %+v", byName["beta"])
	}
	if byName["alpha"].Skipped {
		t.Errorf("large region must not be skipped")
	}
	if got := r.apx.Counter("arcs.skipped_regions"); got != 1 {
		t.Errorf("skipped counter = %v", got)
	}
	// A skipped region stops being tuned: its evals freeze at 1.
	if byName["beta"].Evals > 1 {
		t.Errorf("skipped region kept searching: %d evals", byName["beta"].Evals)
	}
}

func TestTunerClose(t *testing.T) {
	r := newRig(t)
	tuner, err := New(r.apx, r.mach.Arch(), Options{Strategy: StrategyOnline})
	if err != nil {
		t.Fatal(err)
	}
	if r.apx.PolicyCount() != 2 {
		t.Fatalf("policies registered = %d", r.apx.PolicyCount())
	}
	tuner.Close()
	if r.apx.PolicyCount() != 0 {
		t.Errorf("Close must deregister policies, %d left", r.apx.PolicyCount())
	}
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}
	r.runApp(t, 2, regions)
	if len(tuner.Report()) != 0 {
		t.Errorf("closed tuner must not observe regions")
	}
}

func TestSearchAlgoVariants(t *testing.T) {
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}
	for _, algo := range []SearchAlgo{AlgoNelderMead, AlgoPRO, AlgoRandom, AlgoExhaustive} {
		r := newRig(t)
		tuner, err := New(r.apx, r.mach.Arch(), Options{
			Strategy: StrategyOnline, Algo: algo, Seed: 7, MaxEvals: 40,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		r.runApp(t, 50, regions)
		_ = tuner.Finish()
		reps := tuner.Report()
		if len(reps) != 1 || reps[0].Evals == 0 {
			t.Errorf("%v: report = %+v", algo, reps)
		}
	}
}

func TestObjectiveEnergyTuning(t *testing.T) {
	regions := map[string]*sim.LoopModel{"alpha": imbalancedLoop()}

	base := newRig(t)
	base.runApp(t, 50, regions)
	baseE := base.mach.EnergyJ()

	r := newRig(t)
	tuner, err := New(r.apx, r.mach.Arch(), Options{
		Strategy: StrategyOnline, Objective: ObjectiveEnergy, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.runApp(t, 50, regions)
	_ = tuner.Finish()
	if r.mach.EnergyJ() >= baseE {
		t.Errorf("energy-objective tuning should reduce energy: %v vs %v", r.mach.EnergyJ(), baseE)
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyOnline.String() != "ARCS-Online" || StrategyOfflineReplay.String() != "ARCS-Offline" {
		t.Errorf("strategy names wrong")
	}
	if AlgoExhaustive.String() != "exhaustive" {
		t.Errorf("algo name wrong")
	}
}

// saveRecorder is a MemHistory that records the region of every Save, in
// call order.
type saveRecorder struct {
	*MemHistory
	regions []string
}

func (h *saveRecorder) Save(k HistoryKey, cfg ConfigValues, perf float64) {
	h.regions = append(h.regions, k.Region)
	h.MemHistory.Save(k, cfg, perf)
}

// TestFinishSavesInRegionOrder: Finish hands a run's bests to the History
// in region-name order, not map order; through a remote history that
// order is the order of its report requests.
func TestFinishSavesInRegionOrder(t *testing.T) {
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t)
	hist := &saveRecorder{MemHistory: NewMemHistory()}
	tuner, err := New(r.apx, r.mach.Arch(), Options{
		Strategy: StrategyOnline, Seed: 1, History: hist, Key: key("SP"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.WithSteps(1).Run(r.rt); err != nil {
		t.Fatal(err)
	}
	if err := tuner.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(hist.regions) != len(app.Regions) || len(hist.regions) <= 12 {
		t.Fatalf("saved %d regions, want all %d of SP's", len(hist.regions), len(app.Regions))
	}
	if !sort.StringsAreSorted(hist.regions) {
		t.Errorf("Finish saved regions out of name order: %v", hist.regions)
	}
}
