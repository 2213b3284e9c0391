//go:build !race

// The race detector makes sync.Pool drop Puts at random, so the build
// count below holds only without it.

package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/kernels"
)

// TestSequentialSearchesBuildAppOnce checks that sequential searches of
// one app at different caps build it once and reuse it after, each
// result equal to a search on a freshly built app. The searches are
// issued by two goroutines in turn, so at GOMAXPROCS 2 they run on
// either P and an app put back on one P must be found from the other.
func TestSequentialSearchesBuildAppOnce(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GC()
			runtime.GC() // two cycles empty every app pool
			// No GC, so the pool never drops an app.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			builds := 0
			defer func(orig func(string, string) (*kernels.App, error)) { buildApp = orig }(buildApp)
			buildApp = func(app, workload string) (*kernels.App, error) {
				builds++
				return cli.BuildApp(app, workload)
			}
			type result struct {
				res []SearchResult
				err error
			}
			s := SimSearcher{Parallelism: 2, Algo: arcs.AlgoSurrogate}
			var reqs [2]chan SearchRequest
			done := make(chan result)
			for g := range reqs {
				reqs[g] = make(chan SearchRequest)
				go func(in <-chan SearchRequest) {
					for req := range in {
						res, err := s.Search(context.Background(), req)
						done <- result{res, err}
					}
				}(reqs[g])
				defer close(reqs[g])
			}
			for i, capW := range []float64{50, 60, 70, 80} {
				req := SearchRequest{App: "LULESH", Workload: "45", Arch: "crill", CapW: capW, MaxEvals: 40}
				reqs[i%2] <- req
				got := <-done
				if got.err != nil {
					t.Fatal(got.err)
				}
				if want := freshSearch(t, s, req); !reflect.DeepEqual(got.res, want) {
					t.Errorf("cap %g: pooled search %+v, fresh app %+v", capW, got.res, want)
				}
			}
			if builds != 1 {
				t.Errorf("4 sequential searches built the app %d times, want 1", builds)
			}
		})
	}
}
