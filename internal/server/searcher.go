package server

import (
	"context"
	"fmt"
	"runtime"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
)

// SearchRequest describes one server-side search: an app-level context
// whose every region gets a bounded Harmony search.
type SearchRequest struct {
	App      string
	Workload string
	Arch     string
	CapW     float64 // 0 = run at TDP
	MaxEvals int     // per-region evaluation budget
}

// SearchResult is one region's best configuration from a search.
type SearchResult struct {
	Region string
	CapW   float64 // effective cap the search ran at (TDP when req.CapW=0)
	Cfg    arcs.ConfigValues
	Perf   float64
}

// Searcher answers total misses. Implementations must be safe for
// concurrent use; the server's single-flight layer only deduplicates
// identical keys.
type Searcher interface {
	Search(ctx context.Context, req SearchRequest) ([]SearchResult, error)
}

// SimSearcher runs a bounded Harmony search per region against the
// analytic simulator — the paper's unmeasured offline search execution
// (§III-B), hosted server-side so the cost is paid once per context
// instead of once per client. Regions are probed directly through
// arcs.BatchSearch: candidate batches evaluate concurrently on Machine
// clones, and results are memoised in the eval cache so a repeated search
// (same app, workload, arch, cap) does no probe work at all.
type SimSearcher struct {
	// Parallelism bounds concurrent probes per search; 0 selects
	// GOMAXPROCS, 1 evaluates serially.
	Parallelism int
	// Cache memoises probe results across searches (nil = no memoisation).
	Cache *evalcache.Cache
	// Algo selects the per-region search strategy; AlgoAuto runs the
	// historical Nelder-Mead.
	Algo arcs.SearchAlgo
	// Neighbors, when set with Algo == AlgoSurrogate, supplies transfer
	// seeds from neighbouring tuned contexts (normally the daemon's own
	// knowledge store): a new context starts its model from what nearby
	// caps and workloads already learned instead of cold.
	Neighbors func(k arcs.HistoryKey, max int) []arcs.Neighbor
}

// Search implements Searcher.
func (s SimSearcher) Search(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	if req.MaxEvals <= 0 {
		return nil, fmt.Errorf("server: search budget must be positive, got %d", req.MaxEvals)
	}
	app, err := cli.BuildApp(req.App, req.Workload)
	if err != nil {
		return nil, err
	}
	arch, err := cli.BuildArch(req.Arch)
	if err != nil {
		return nil, err
	}
	regions := make([]arcs.RegionModel, 0, len(app.Regions))
	for _, spec := range app.Regions {
		regions = append(regions, arcs.RegionModel{Name: spec.Name, Model: spec.Model})
	}
	par := s.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	algo := s.Algo
	if algo == arcs.AlgoAuto {
		algo = arcs.AlgoNelderMead
	}
	var seeds func(region string) []arcs.TransferSeed
	if algo == arcs.AlgoSurrogate && s.Neighbors != nil {
		// Neighbor keys carry the effective cap BatchSearch will run at:
		// stored entries are keyed by effective cap, never the 0 sentinel.
		effCap := req.CapW
		if effCap == 0 { //arcslint:ignore floatcmp 0 is the uncapped sentinel, compared verbatim
			effCap = arch.TDPW
		}
		seeds = func(region string) []arcs.TransferSeed {
			k := arcs.HistoryKey{App: app.Name, Workload: app.Workload, CapW: effCap, Region: region}
			return arcs.TransferSeeds(k, s.Neighbors(k, arcs.DefaultTransferSeeds))
		}
	}
	results, err := arcs.BatchSearch(ctx, arch, regions, arcs.BatchSearchOptions{
		Algo:        algo,
		MaxEvals:    req.MaxEvals,
		CapW:        req.CapW,
		Parallelism: par,
		Cache:       s.Cache,
		App:         app.Name,
		Workload:    app.Workload,
		Seeds:       seeds,
	})
	if err != nil {
		return nil, err
	}
	out := make([]SearchResult, 0, len(results))
	for _, r := range results {
		out = append(out, SearchResult{Region: r.Region, CapW: r.CapW, Cfg: r.Cfg, Perf: r.Perf})
	}
	return out, nil
}
