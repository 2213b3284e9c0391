//go:build !race

// The race detector makes sync.Pool drop Puts at random, so the build
// count below holds only without it.

package server

import (
	"context"
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
// result equal to a search on a freshly built app.
func TestSequentialSearchesBuildAppOnce(t *testing.T) {
	runtime.GC()
	runtime.GC() // two cycles empty every app pool
	// One P and no GC, so the pool neither drops an app nor hides it on
	// another P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	builds := 0
	defer func(orig func(string, string) (*kernels.App, error)) { buildApp = orig }(buildApp)
	buildApp = func(app, workload string) (*kernels.App, error) {
		builds++
		return cli.BuildApp(app, workload)
	}
	s := SimSearcher{Parallelism: 2, Algo: arcs.AlgoSurrogate}
	for _, capW := range []float64{50, 60, 70, 80} {
		req := SearchRequest{App: "LULESH", Workload: "45", Arch: "crill", CapW: capW, MaxEvals: 40}
		got, err := s.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshSearch(t, s, req); !reflect.DeepEqual(got, want) {
			t.Errorf("cap %g: pooled search %+v, fresh app %+v", capW, got, want)
		}
	}
	if builds != 1 {
		t.Errorf("4 sequential searches built the app %d times, want 1", builds)
	}
}
