package server

import (
	"context"
	"fmt"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/store"
)

// Cold-search latency of SimSearcher on the Table-I space: every
// iteration uses a fresh eval cache, so each search pays full probe cost.
// The parallelism sweep is the tentpole speedup measurement — compare
// p=1 against p=8. The custom evals/s metric surfaces search throughput
// in cmd/benchjson output.
func benchmarkSimSearcherCold(b *testing.B, parallelism int) {
	b.Helper()
	req := SearchRequest{App: "SP", Workload: "B", Arch: "crill", CapW: 70, MaxEvals: 40}
	ctx := context.Background()
	var probes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := evalcache.New()
		s := SimSearcher{Parallelism: parallelism, Cache: c}
		if _, err := s.Search(ctx, req); err != nil {
			b.Fatal(err)
		}
		probes += c.Stats().Misses // cold: misses == fresh probes == evals
	}
	b.StopTimer()
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "evals/s")
}

func BenchmarkSimSearcherCold(b *testing.B) {
	for _, p := range []int{1, 2, 8} {
		// No trailing -N in the name: benchjson would strip it as a
		// GOMAXPROCS suffix on single-CPU runners.
		b.Run(fmt.Sprintf("parallel%d", p), func(b *testing.B) {
			benchmarkSimSearcherCold(b, p)
		})
	}
}

// Warm-search latency: all iterations share one cache, so after the first
// search every probe is a hit — the steady state of a long-lived arcsd.
func BenchmarkSimSearcherWarm(b *testing.B) {
	req := SearchRequest{App: "SP", Workload: "B", Arch: "crill", CapW: 70, MaxEvals: 40}
	s := SimSearcher{Parallelism: 8, Cache: evalcache.New()}
	if _, err := s.Search(context.Background(), req); err != nil {
		b.Fatal(err) // prime the cache outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
}

// Surrogate search economics. The probes/op metric is the contract the
// CI perf gate holds: cold surrogate search must stay in the same probe
// class as Nelder-Mead, and transfer-seeded search must stay an order of
// magnitude cheaper (the verified-transfer exit). Parallelism is 1 so
// probe counts are deterministic run to run.
func BenchmarkSurrogateCold(b *testing.B) {
	req := SearchRequest{App: "SP", Workload: "B", Arch: "crill", CapW: 70, MaxEvals: 90}
	ctx := context.Background()
	var probes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := evalcache.New()
		s := SimSearcher{Parallelism: 1, Cache: c, Algo: arcs.AlgoSurrogate}
		if _, err := s.Search(ctx, req); err != nil {
			b.Fatal(err)
		}
		probes += c.Stats().Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

// BenchmarkSurrogateTransfer measures a new-context search that can
// transfer-seed from the two adjacent caps' tuned winners, the
// steady-state of a fleet that has been serving a while.
func BenchmarkSurrogateTransfer(b *testing.B) {
	benchmarkSurrogateTransfer(b, "SP", "B")
}

// BenchmarkSurrogateTransferLULESH is the same search on LULESH 60, whose
// two 216,000-element Sawtooth regions have the largest weight prefix
// sums of any searched app: a search that reuses the pooled app skips
// rebuilding them.
func BenchmarkSurrogateTransferLULESH(b *testing.B) {
	benchmarkSurrogateTransfer(b, "LULESH", "60")
}

// benchmarkSurrogateTransfer times a surrogate search of app at 70 W,
// seeded from Nelder-Mead winners at 65 and 75 W. Each iteration takes
// the app the seeding searches left in its pool, prefix sums built, as
// a server-side search at a new cap of an already-searched app does.
func benchmarkSurrogateTransfer(b *testing.B, app, workload string) {
	b.Helper()
	req := SearchRequest{App: app, Workload: workload, Arch: "crill", CapW: 70, MaxEvals: 90}
	ctx := context.Background()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, capW := range []float64{65, 75} {
		nReq := req
		nReq.CapW = capW
		res, err := SimSearcher{Parallelism: 1, Cache: evalcache.New(), Algo: arcs.AlgoNelderMead}.Search(ctx, nReq)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			st.Save(arcs.HistoryKey{App: req.App, Workload: req.Workload, CapW: capW, Region: r.Region}, r.Cfg, r.Perf)
		}
	}
	var probes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := evalcache.New()
		s := SimSearcher{Parallelism: 1, Cache: c, Algo: arcs.AlgoSurrogate, Neighbors: st.LoadNeighbors}
		if _, err := s.Search(ctx, req); err != nil {
			b.Fatal(err)
		}
		probes += c.Stats().Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}
