package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/store"
)

// searchGoldenFile holds the expected outcome of every context in
// searchGoldenLines, one line per region.
var searchGoldenFile = filepath.Join("testdata", "surrogate_search.golden")

// searchGoldenLines runs the surrogate search (budget 40) over the 84
// Crill contexts of arcsperf's search workload — SP and BT at classes B
// and C, LULESH at 45 and 60, caps 50, 55 … 115 W — in app order, then
// ascending cap, through one store and one eval cache, as a standalone
// arcsd does. Each context is seeded from the neighbours the earlier
// ones saved, so same-workload promises and cross-workload donors both
// shape the results. It returns one "app workload cap region cfg perf"
// line per region, perf at full precision.
func searchGoldenLines(t testing.TB) []byte {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := SimSearcher{Parallelism: 2, Cache: evalcache.New(), Algo: arcs.AlgoSurrogate, Neighbors: st.LoadNeighbors}
	var buf bytes.Buffer
	for _, a := range []struct{ app, workload string }{
		{"SP", "B"}, {"SP", "C"}, {"BT", "B"}, {"BT", "C"}, {"LULESH", "45"}, {"LULESH", "60"},
	} {
		for capW := 50.0; capW <= 115; capW += 5 {
			req := SearchRequest{App: a.app, Workload: a.workload, Arch: "crill", CapW: capW, MaxEvals: 40}
			res, err := s.Search(context.Background(), req)
			if err != nil {
				t.Fatalf("%s.%s at %gW: %v", a.app, a.workload, capW, err)
			}
			for _, r := range res {
				st.Save(arcs.HistoryKey{App: a.app, Workload: a.workload, CapW: r.CapW, Region: r.Region}, r.Cfg, r.Perf)
				fmt.Fprintf(&buf, "%s %s %g %s %s %.17g\n", a.app, a.workload, capW, r.Region, goldenCfg(r.Cfg), r.Perf)
			}
		}
	}
	return buf.Bytes()
}

// goldenCfg renders every field of a configuration, so two winners
// that differ in any knob print differently.
func goldenCfg(c arcs.ConfigValues) string {
	return fmt.Sprintf("threads=%d sched=%d chunk=%d freq=%g bind=%d", c.Threads, int(c.Schedule), c.Chunk, c.FreqGHz, int(c.Bind))
}

// TestSurrogateSearchGolden pins the transfer-seeded server-side search
// bit for bit: every winner and every perf of the search workload's
// contexts must match the committed file. A change to the simulator's
// prefix sums, the probe path, the surrogate forest or the neighbour
// scan that moves any float shows up here.
func TestSurrogateSearchGolden(t *testing.T) {
	want, err := os.ReadFile(searchGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := searchGoldenLines(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, want %d", len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}
