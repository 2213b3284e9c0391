package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/kernels"
)

// freshSearch runs req through s on a freshly built app, bypassing the
// app pools: the reference a pooled search must equal.
func freshSearch(t *testing.T, s SimSearcher, req SearchRequest) []SearchResult {
	t.Helper()
	app, err := cli.BuildApp(req.App, req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.search(context.Background(), app, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentSearchesMatchFreshApp runs rounds of concurrent searches
// of one app at different caps, so pooled apps pass between goroutines,
// and requires each to equal a serial search on a freshly built app.
func TestConcurrentSearchesMatchFreshApp(t *testing.T) {
	caps := []float64{50, 60, 70, 80, 90, 100}
	req := func(capW float64) SearchRequest {
		return SearchRequest{App: "LULESH", Workload: "45", Arch: "crill", CapW: capW, MaxEvals: 40}
	}
	want := make([][]SearchResult, len(caps))
	for i, capW := range caps {
		want[i] = freshSearch(t, SimSearcher{Parallelism: 1, Algo: arcs.AlgoSurrogate}, req(capW))
	}
	s := SimSearcher{Parallelism: 2, Algo: arcs.AlgoSurrogate}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, capW := range caps {
			wg.Add(1)
			go func(i int, capW float64) {
				defer wg.Done()
				got, err := s.Search(context.Background(), req(capW))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("cap %g: pooled search %+v, fresh app %+v", capW, got, want[i])
				}
			}(i, capW)
		}
	}
	wg.Wait()
}

// TestCancelledSearchKeepsAppOutOfPool checks that a search that returns
// an error on a freshly built app pools nothing, and that the next
// search of the app still matches the golden file's first context (SP B
// at 50 W, searched before the store held any neighbour).
func TestCancelledSearchKeepsAppOutOfPool(t *testing.T) {
	// Two GC cycles empty every app pool, and with GC off nothing but
	// the searches below fills or empties one.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	builds := 0
	defer func(orig func(string, string) (*kernels.App, error)) { buildApp = orig }(buildApp)
	buildApp = func(app, workload string) (*kernels.App, error) {
		builds++
		return cli.BuildApp(app, workload)
	}
	s := SimSearcher{Parallelism: 2, Algo: arcs.AlgoSurrogate}
	req := SearchRequest{App: "SP", Workload: "B", Arch: "crill", CapW: 50, MaxEvals: 40}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Search(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if builds != 1 {
		t.Fatalf("cancelled search built the app %d times, want 1", builds)
	}
	if p, ok := appPools.Load(appKey{app: req.App, workload: req.Workload}); ok {
		if app := p.(*appPool).Get(); app != nil {
			t.Error("cancelled search put its freshly built app in the pool")
		}
	}

	res, err := s.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeGoldenLines(&got, req, res)
	golden, err := os.ReadFile(searchGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden[:min(got.Len(), len(golden))]; !bytes.Equal(got.Bytes(), want) {
		t.Errorf("search after a cancelled one:\n%s\nwant\n%s", got.Bytes(), want)
	}
}

// TestSearchKeyMatchesSprintf holds the append-built single-flight key
// to the Sprintf form it replaced, byte for byte, on seeded random
// requests: fields with `|` and `\`, fields long enough to outgrow the
// stack buffer, and caps that are integers, fractions, -0, infinities
// or NaN.
func TestSearchKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := func() string {
		const alphabet = `ab_|\9é `
		n := rng.Intn(12)
		if rng.Intn(20) == 0 {
			n = 80
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	specials := []float64{0, math.Copysign(0, -1), 70, 72.5, 1e21, 1e-7, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 20000; i++ {
		capW := specials[rng.Intn(len(specials))]
		switch rng.Intn(3) {
		case 0:
			capW = rng.Float64() * 200
		case 1:
			capW = math.Float64frombits(rng.Uint64())
		}
		req := SearchRequest{App: field(), Workload: field(), Arch: field(), CapW: capW}
		want := fmt.Sprintf("%s|%s|%s|%g", req.App, req.Workload, req.Arch, req.CapW)
		if got := searchKey(req); got != want {
			t.Fatalf("searchKey = %q, want %q (cap bits %#x)", got, want, math.Float64bits(capW))
		}
	}
}
