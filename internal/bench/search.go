package bench

import (
	"context"
	"fmt"
	"io"

	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/kernels"
	"arcs/internal/sim"
)

// SearchCacheRow is one BatchSearch pass in the cold/warm protocol.
type SearchCacheRow struct {
	Phase  string  // "cold" or "warm"
	CapW   float64 // 0 = TDP
	Evals  int     // session evaluations summed over regions
	Probes int     // fresh simulator probes (cache misses)
	Hits   int     // probe requests served from the eval cache
}

// SearchCacheResult demonstrates BatchSearch's eval cache: the same
// per-region Harmony searches run twice per power cap against one shared
// cache. Cold passes pay a fresh probe per evaluation; warm passes are
// served entirely from the cache. Only deterministic counters are
// reported — no wall times — so the artifact is byte-identical across
// runs, runners, and -j parallelism.
type SearchCacheResult struct {
	App     string
	Arch    string
	Rows    []SearchCacheRow
	Entries int // distinct (region, cap, config) evaluations cached
}

// SearchCache runs SP class B region searches on Crill at 70 W and TDP,
// cold then warm, through one shared eval cache. It probes on one machine,
// so the machine's probe table sees each region's probes in session order
// and the suite's simulation count is the same on every run.
func SearchCache() (*SearchCacheResult, error) {
	arch := sim.Crill()
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		return nil, err
	}
	regions := make([]arcs.RegionModel, 0, len(app.Regions))
	for _, spec := range app.Regions {
		regions = append(regions, arcs.RegionModel{Name: spec.Name, Model: spec.Model})
	}

	cache := evalcache.New()
	res := &SearchCacheResult{App: app.String(), Arch: arch.Name}
	for _, capW := range []float64{70, 0} {
		for _, phase := range []string{"cold", "warm"} {
			out, err := arcs.BatchSearch(context.Background(), arch, regions, arcs.BatchSearchOptions{
				Algo:        arcs.AlgoNelderMead,
				MaxEvals:    40,
				CapW:        capW,
				Parallelism: 1,
				Cache:       cache,
				App:         app.Name,
				Workload:    app.Workload,
			})
			if err != nil {
				return nil, err
			}
			row := SearchCacheRow{Phase: phase, CapW: capW}
			for _, r := range out {
				row.Evals += r.Evals
				row.Probes += r.Probes
				row.Hits += r.Hits
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Entries = cache.Len()
	return res, nil
}

// Print renders the cold/warm protocol as a table.
func (r *SearchCacheResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Eval cache — batched %s region searches on %s (Nelder-Mead, 40 evals/region)\n", r.App, r.Arch)
	fmt.Fprintf(w, "%-8s %-10s %8s %8s %8s\n", "phase", "cap", "evals", "probes", "hits")
	for _, row := range r.Rows {
		label := "TDP"
		if row.CapW > 0 {
			label = fmt.Sprintf("%.0fW", row.CapW)
		}
		fmt.Fprintf(w, "%-8s %-10s %8d %8d %8d\n", row.Phase, label, row.Evals, row.Probes, row.Hits)
	}
	fmt.Fprintf(w, "cached evaluations: %d (keys include the power cap — 70W and TDP never alias)\n", r.Entries)
}
