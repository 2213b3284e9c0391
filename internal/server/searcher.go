package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/kernels"
)

// SearchRequest describes one server-side search: an app-level context
// whose every region gets a bounded Harmony search.
type SearchRequest struct {
	App      string
	Workload string
	Region   string // the region the caller asked for ("" = any); an app without it fails with ErrUnknownRegion
	Arch     string
	CapW     float64 // 0 or the machine's TDP = run uncapped
	MaxEvals int     // per-region evaluation budget
}

// ErrUnknownRegion is the error a Searcher returns, before any probe,
// for a request whose app has no region of that name: a miss to answer
// 404, not a failed search.
var ErrUnknownRegion = errors.New("server: the app has no such region")

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
// arcs.BatchSearch: one serial session per region, the regions searching
// concurrently on Machine clones, memoised in Cache when one is set.
//
// A search takes its app from a pool per (app, workload) and builds it
// only on a miss, so a new-cap search reuses the region models, and the
// weight prefix sums they built, of an earlier search of the same app.
// The reuse relies on the LoopModel contract that a model is never
// mutated once probed; each search probes fresh Machine clones with
// empty memos, so results are bit-identical to a search on a freshly
// built app. An app goes back to its pool only after a search that
// returned without error. By then every region has been probed and
// every prefix built, so the app is read-only and any number of searches
// may share it: it goes back twice, once into the current P's private
// slot and once into the shared chain a Get on any other P steals from.
// An idle app is dropped after two GC cycles, as sync.Pool drops any
// item, so the pool holds no app's prefix sums against the live heap.
// The pool map itself keeps one small entry per distinct (app, workload)
// ever built, with the app's region names, which is unbounded across
// SYNTH seeds, as the store's per-region entries for the same contexts
// are.
type SimSearcher struct {
	// Parallelism bounds concurrent probes per search, across its
	// regions; 0 selects GOMAXPROCS, 1 probes one at a time.
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

// Search implements Searcher. A request for a region the app lacks fails
// with ErrUnknownRegion before any probe, and once the app has been
// built, before taking it from its pool.
func (s SimSearcher) Search(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	if req.MaxEvals <= 0 {
		return nil, fmt.Errorf("server: search budget must be positive, got %d", req.MaxEvals)
	}
	key := appKey{app: req.App, workload: req.Workload}
	var pool *appPool
	var app *kernels.App
	if v, ok := appPools.Load(key); ok {
		pool = v.(*appPool)
		if !pool.hasRegion(req.Region) {
			return nil, unknownRegion(req)
		}
		app, _ = pool.Get().(*kernels.App)
	}
	if app == nil {
		var err error
		if app, err = buildApp(req.App, req.Workload); err != nil {
			return nil, err
		}
		if pool == nil {
			v, _ := appPools.LoadOrStore(key, newAppPool(app))
			pool = v.(*appPool)
			if !pool.hasRegion(req.Region) {
				pool.share(app) // never probed: any search may take it
				return nil, unknownRegion(req)
			}
		}
	}
	out, err := s.search(ctx, app, req)
	if err != nil {
		return nil, err
	}
	// Not deferred: a panic inside a prefix build leaves the model's
	// sync.Once done with no prefix, so only a search that returned puts
	// its app back.
	pool.share(app)
	return out, nil
}

// unknownRegion is ErrUnknownRegion naming req's app and region.
func unknownRegion(req SearchRequest) error {
	return fmt.Errorf("%w: %s.%s has no region %q", ErrUnknownRegion, req.App, req.Workload, req.Region)
}

// appKey names one pool of built apps.
type appKey struct{ app, workload string }

// appPool holds the idle built apps of one (app, workload), and the
// region names every one of them has.
type appPool struct {
	sync.Pool
	regions []string
}

// newAppPool returns an empty pool for app's (app, workload).
func newAppPool(app *kernels.App) *appPool {
	p := &appPool{regions: make([]string, len(app.Regions))}
	for i := range app.Regions {
		p.regions[i] = app.Regions[i].Name
	}
	return p
}

// hasRegion reports whether the pool's apps have a region named name;
// every app has "".
func (p *appPool) hasRegion(name string) bool {
	return name == "" || slices.Contains(p.regions, name)
}

// share puts a read-only app where a Get on any P finds it: Put fills
// the current P's private slot if it is empty, which only a Get on that
// P sees, and the second Put goes to the shared chain.
func (p *appPool) share(app *kernels.App) {
	p.Put(app)
	p.Put(app)
}

// appPools maps an appKey to its *appPool. An entry is made when an app
// is first built, which only a valid app name and workload can be.
var appPools sync.Map

// buildApp builds an app on a pool miss; tests count builds through it.
var buildApp = cli.BuildApp

// search runs req's search over app's regions.
func (s SimSearcher) search(ctx context.Context, app *kernels.App, req SearchRequest) ([]SearchResult, error) {
	arch, err := cli.BuildArch(req.Arch)
	if err != nil {
		return nil, err
	}
	// A cap at TDP is no cap (sim.Machine.Capped), and the uncapped
	// sentinel also runs on machines without capping privilege.
	capW := req.CapW
	if capW == arch.TDPW { //arcslint:ignore floatcmp lookups key an omitted cap at exactly TDPW
		capW = 0
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
		effCap := capW
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
		CapW:        capW,
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
