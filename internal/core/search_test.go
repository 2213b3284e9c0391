package arcs

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"arcs/internal/evalcache"
	"arcs/internal/kernels"
	"arcs/internal/ompt"
	"arcs/internal/sim"
)

// smallSpace keeps BatchSearch tests fast: 3 x 2 x 3 = 18 points.
func smallSpace() SearchSpace {
	return SearchSpace{
		Threads:   []int{4, 16, 0},
		Schedules: []ompt.ScheduleKind{ompt.ScheduleStatic, ompt.ScheduleDynamic},
		Chunks:    []int{1, 16, 0},
	}
}

func searchRegions() []RegionModel {
	ramp := imbalancedLoop()
	ramp.Name = "ramp"
	bal := imbalancedLoop()
	bal.Name = "balanced"
	bal.Imbalance = sim.Imbalance{Kind: sim.Uniform}
	return []RegionModel{{Name: "ramp", Model: ramp}, {Name: "balanced", Model: bal}}
}

// TestBatchSearchParallelMatchesSerial: a region's search is one serial
// session whatever the parallelism, so every parallelism level returns
// identical results, and every evaluation is one fresh probe: nothing is
// probed speculatively. It runs every algorithm over a small space, and
// the online algorithms over Table I on SP class B's regions.
func TestBatchSearchParallelMatchesSerial(t *testing.T) {
	arch := sim.Crill()
	sp, err := kernels.SP(kernels.ClassB)
	if err != nil {
		t.Fatal(err)
	}
	var spRegions []RegionModel
	for _, r := range sp.Regions {
		spRegions = append(spRegions, RegionModel{Name: r.Name, Model: r.Model})
	}
	type searchCase struct {
		name    string
		regions []RegionModel
		space   SearchSpace
		algo    SearchAlgo
		evals   int
	}
	var cases []searchCase
	for _, algo := range []SearchAlgo{AlgoNelderMead, AlgoExhaustive, AlgoPRO, AlgoCoordinate, AlgoSurrogate, AlgoRandom} {
		cases = append(cases, searchCase{"small", searchRegions(), smallSpace(), algo, 0})
	}
	for _, algo := range []SearchAlgo{AlgoNelderMead, AlgoSurrogate} {
		cases = append(cases, searchCase{"SP.B Table I", spRegions, TableISpace(arch), algo, 40})
	}
	for _, c := range cases {
		var want []BatchSearchResult
		for _, par := range []int{1, 2, 8} {
			got, err := BatchSearch(context.Background(), arch, c.regions, BatchSearchOptions{
				Space: c.space, Algo: c.algo, MaxEvals: c.evals, Seed: 7, CapW: 70, Parallelism: par,
			})
			if err != nil {
				t.Fatalf("%s %v par %d: %v", c.name, c.algo, par, err)
			}
			for _, r := range got {
				if r.Evals == 0 || r.Probes != r.Evals || r.Hits != 0 {
					t.Errorf("%s %v par %d: %s uncached has evals=%d probes=%d hits=%d",
						c.name, c.algo, par, r.Region, r.Evals, r.Probes, r.Hits)
				}
				if r.CapW != 70 {
					t.Errorf("%s %v par %d: effective cap %g, want 70", c.name, c.algo, par, r.CapW)
				}
			}
			if par == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v par %d:\n got %+v\nwant %+v", c.name, c.algo, par, got, want)
			}
		}
	}
}

// TestBatchSearchEvalCache: a second identical search against a shared
// cache does zero probe work — every request is a hit.
func TestBatchSearchEvalCache(t *testing.T) {
	arch := sim.Crill()
	cache := evalcache.New()
	opts := BatchSearchOptions{
		Space: smallSpace(), Algo: AlgoNelderMead, Seed: 3, CapW: 85, Parallelism: 4,
		Cache: cache, App: "sp", Workload: "C",
	}
	cold, err := BatchSearch(context.Background(), arch, searchRegions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BatchSearch(context.Background(), arch, searchRegions(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if warm[i].Probes != 0 {
			t.Errorf("%s: warm search probed %d times, want 0", warm[i].Region, warm[i].Probes)
		}
		if warm[i].Hits == 0 {
			t.Errorf("%s: warm search recorded no cache hits", warm[i].Region)
		}
		if warm[i].Cfg != cold[i].Cfg || warm[i].Perf != cold[i].Perf || warm[i].Evals != cold[i].Evals {
			t.Errorf("%s: warm result %+v != cold %+v", warm[i].Region, warm[i], cold[i])
		}
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 || st.InFlight != 0 {
		t.Errorf("cache stats %+v: want misses and hits recorded, nothing in flight", st)
	}
	// A different cap must not reuse the 85 W entries.
	other, err := BatchSearch(context.Background(), arch, searchRegions(), BatchSearchOptions{
		Space: smallSpace(), Algo: AlgoNelderMead, Seed: 3, CapW: 55, Parallelism: 4,
		Cache: cache, App: "sp", Workload: "C",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range other {
		if r.Probes == 0 {
			t.Errorf("%s: 55 W search reused 85 W cache entries", r.Region)
		}
	}
}

func TestBatchSearchValidation(t *testing.T) {
	arch := sim.Crill()
	ctx := context.Background()
	if _, err := BatchSearch(ctx, arch, nil, BatchSearchOptions{}); err == nil {
		t.Error("no regions must fail")
	}
	if _, err := BatchSearch(ctx, arch, []RegionModel{{Name: "x"}}, BatchSearchOptions{}); err == nil {
		t.Error("nil model must fail")
	}
	if _, err := BatchSearch(ctx, arch, searchRegions(), BatchSearchOptions{Cache: evalcache.New()}); err == nil {
		t.Error("cache without app/workload identity must fail")
	}
	if _, err := BatchSearch(ctx, arch, searchRegions(), BatchSearchOptions{CapW: 1e6}); err == nil {
		// Crill clamps caps above TDP, so use an uncappable arch instead.
		t.Log("cap clamped (expected on Crill)")
	}
	mino := sim.Minotaur()
	if _, err := BatchSearch(ctx, mino, []RegionModel{{Name: "r", Model: imbalancedLoop()}}, BatchSearchOptions{CapW: 50}); err == nil {
		t.Error("capping an uncappable architecture must fail")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := BatchSearch(cancelled, arch, searchRegions(), BatchSearchOptions{Space: smallSpace()}); err == nil {
		t.Error("cancelled context must fail")
	}
}

// TestBatchSearchDefaultSpace: the zero-value space selects TableISpace,
// whose winner search must complete within the budget.
func TestBatchSearchDefaultSpace(t *testing.T) {
	got, err := BatchSearch(context.Background(), sim.Crill(), searchRegions()[:1], BatchSearchOptions{
		MaxEvals: 40, Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Evals == 0 || got[0].Perf <= 0 {
		t.Fatalf("unexpected result %+v", got)
	}
}

// TestCacheConfigKeyMatchesSprintf holds the append-built cache key to
// the Sprintf form it replaced, byte for byte, on seeded random
// configurations: negative and large integers, and frequencies that are
// integers, fractions, -0, infinities or NaN.
func TestCacheConfigKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{0, math.Copysign(0, -1), 2.4, 1.2, 1e21, math.Inf(1), math.Inf(-1), math.NaN()}
	integer := func() int { return int(rng.Uint64()) >> uint(rng.Intn(64)) }
	for i := 0; i < 20000; i++ {
		freq := specials[rng.Intn(len(specials))]
		switch rng.Intn(3) {
		case 0:
			freq = rng.Float64() * 4
		case 1:
			freq = math.Float64frombits(rng.Uint64())
		}
		c := ConfigValues{Threads: integer(), Schedule: ompt.ScheduleKind(integer()), Chunk: integer(), FreqGHz: freq, Bind: ompt.BindKind(integer())}
		want := fmt.Sprintf("%d/%d/%d/%g/%d", c.Threads, int(c.Schedule), c.Chunk, c.FreqGHz, int(c.Bind))
		if got := cacheConfigKey(c); got != want {
			t.Fatalf("cacheConfigKey(%+v) = %q, want %q", c, got, want)
		}
	}
}
