package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/store"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func postReport(t *testing.T, base string, reports []ReportRequest) map[string]any {
	t.Helper()
	body, _ := json.Marshal(reports)
	resp, err := http.Post(base+"/v1/reports", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("report status %d: %s", resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getConfig(t *testing.T, base string, query string) (ConfigResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/config?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr ConfigResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
	}
	return cr, resp.StatusCode
}

func TestLookupExactFallbackMiss(t *testing.T) {
	ts := newTestServer(t, Config{})
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	cfg := arcs.ConfigValues{Threads: 16, Chunk: 8}
	postReport(t, ts.URL, []ReportRequest{{Key: k, Cfg: cfg, Perf: 1.5}})

	// Exact.
	cr, code := getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=x_solve")
	if code != 200 || cr.Source != "exact" || cr.Config != cfg || cr.Version != 1 {
		t.Errorf("exact lookup = %+v (code %d)", cr, code)
	}
	// Nearest-cap fallback with distance annotation.
	cr, code = getConfig(t, ts.URL, "app=SP&workload=B&cap=80&region=x_solve")
	if code != 200 || cr.Source != "fallback" || cr.CapDistance != 10 || cr.Config != cfg {
		t.Errorf("fallback lookup = %+v (code %d)", cr, code)
	}
	// Fallback disabled.
	if _, code = getConfig(t, ts.URL, "app=SP&workload=B&cap=80&region=x_solve&fallback=0"); code != 404 {
		t.Errorf("fallback=0 should miss, got %d", code)
	}
	// Total miss (different region).
	if _, code = getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=nope"); code != 404 {
		t.Errorf("miss should 404, got %d", code)
	}
	// Bad requests.
	if _, code = getConfig(t, ts.URL, "workload=B&cap=70&region=x"); code != 400 {
		t.Errorf("missing app should 400, got %d", code)
	}
	if _, code = getConfig(t, ts.URL, "app=SP&workload=B&cap=wat&region=x"); code != 400 {
		t.Errorf("bad cap should 400, got %d", code)
	}
}

func TestReportValidationAndKeepBest(t *testing.T) {
	ts := newTestServer(t, Config{})
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}
	postReport(t, ts.URL, []ReportRequest{{Key: k, Cfg: arcs.ConfigValues{Threads: 8}, Perf: 2.0}})
	// Worse report is ignored; better replaces.
	postReport(t, ts.URL, []ReportRequest{
		{Key: k, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 5.0},
		{Key: k, Cfg: arcs.ConfigValues{Threads: 24}, Perf: 1.0},
	})
	cr, _ := getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=r")
	if cr.Config.Threads != 24 || cr.Perf != 1.0 || cr.Version != 2 {
		t.Errorf("keep-best over the wire: %+v", cr)
	}

	// A single object body works too.
	one, _ := json.Marshal(ReportRequest{Key: arcs.HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "r2"}, Perf: 1})
	resp, err := http.Post(ts.URL+"/v1/reports", "application/json", bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("single-object report status %d", resp.StatusCode)
	}

	for _, bad := range []string{
		`{"key":{"app":"","region":"r"},"perf":1}`,
		`[{"key":{"app":"A","region":"r"},"perf":"x"}]`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/reports", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("bad report %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestDumpHealthzMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	postReport(t, ts.URL, []ReportRequest{
		{Key: arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}, Perf: 1},
	})
	getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=r")
	getConfig(t, ts.URL, "app=SP&workload=B&cap=99&region=r")

	resp, err := http.Get(ts.URL + "/v1/dump")
	if err != nil {
		t.Fatal(err)
	}
	var entries []store.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 1 || entries[0].Key.Region != "r" {
		t.Errorf("dump = %+v", entries)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Entries != 1 {
		t.Errorf("healthz = %+v (err %v, code %d)", hr, err, resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`arcsd_requests_total{endpoint="config",code="200"} 2`,
		`arcsd_requests_total{endpoint="reports",code="200"} 1`,
		"arcsd_lookup_hits_total 1",
		"arcsd_lookup_fallbacks_total 1",
		"arcsd_store_entries 1",
		`arcsd_request_seconds_count{endpoint="config"} 2`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q:\n%s", want, mb)
		}
	}
}

// countingSearcher blocks until released, counting invocations: the
// single-flight layer must collapse concurrent cold-key lookups to one.
type countingSearcher struct {
	mu      sync.Mutex
	calls   int
	started chan struct{} // closed when the first search begins
	release chan struct{} // search returns when closed
}

func (c *countingSearcher) Search(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	c.mu.Lock()
	c.calls++
	if c.calls == 1 {
		close(c.started)
	}
	c.mu.Unlock()
	<-c.release
	return []SearchResult{{
		Region: "r", CapW: req.CapW,
		Cfg:  arcs.ConfigValues{Threads: 16},
		Perf: 1.0,
	}}, nil
}

func TestSingleFlightCollapsesColdKeySearches(t *testing.T) {
	cs := &countingSearcher{started: make(chan struct{}), release: make(chan struct{})}
	ts := newTestServer(t, Config{Searcher: cs, SearchBudget: 10})

	const clients = 16
	var wg sync.WaitGroup
	var ok32 atomic.Int64
	results := make([]ConfigResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/config?app=SP&workload=B&cap=70&region=r&arch=crill")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			ok32.Add(1)
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	// Release the searcher once the first call is in flight; every other
	// client is either queued behind the flight or will hit the store.
	<-cs.started
	close(cs.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := ok32.Load(); got != clients {
		t.Fatalf("%d/%d clients served", got, clients)
	}
	cs.mu.Lock()
	calls := cs.calls
	cs.mu.Unlock()
	if calls != 1 {
		t.Errorf("single-flight failed: %d searches for one cold key", calls)
	}
	for i, r := range results {
		if r.Config.Threads != 16 {
			t.Errorf("client %d got %+v", i, r)
		}
		if r.Source != "searched" && r.Source != "exact" {
			t.Errorf("client %d source = %q", i, r.Source)
		}
	}
}

type errSearcher struct{}

func (errSearcher) Search(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	return nil, fmt.Errorf("boom")
}

func TestSearchDisabledAndFailed(t *testing.T) {
	// Budget 0: no search, plain 404.
	ts := newTestServer(t, Config{Searcher: errSearcher{}})
	if _, code := getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=r&arch=crill"); code != 404 {
		t.Errorf("budget=0 should 404, got %d", code)
	}
	// search=0 opts out even with budget.
	ts2 := newTestServer(t, Config{Searcher: errSearcher{}, SearchBudget: 5})
	if _, code := getConfig(t, ts2.URL, "app=SP&workload=B&cap=70&region=r&arch=crill&search=0"); code != 404 {
		t.Errorf("search=0 should 404, got %d", code)
	}
	// No arch: cannot search, plain 404.
	if _, code := getConfig(t, ts2.URL, "app=SP&workload=B&cap=70&region=r"); code != 404 {
		t.Errorf("no arch should 404, got %d", code)
	}
	// Failing searcher: 502.
	if _, code := getConfig(t, ts2.URL, "app=SP&workload=B&cap=70&region=r&arch=crill"); code != 502 {
		t.Errorf("failed search should 502, got %d", code)
	}
}

// TestSimSearcherEndToEnd: a real (tiny) simulator search populates the
// store and answers the lookup.
func TestSimSearcherEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{SearchBudget: 6})
	cr, code := getConfig(t, ts.URL, "app=SYNTH&workload=3&cap=70&region=synth_00&arch=crill")
	if code != 200 {
		t.Fatalf("searched lookup failed: %d", code)
	}
	if cr.Source != "searched" {
		t.Errorf("source = %q, want searched", cr.Source)
	}
	// The search covered every region of the app, so a sibling region is
	// now an exact hit.
	resp, err := http.Get(ts.URL + "/v1/dump")
	if err != nil {
		t.Fatal(err)
	}
	var entries []store.Entry
	json.NewDecoder(resp.Body).Decode(&entries)
	resp.Body.Close()
	if len(entries) < 1 {
		t.Errorf("search stored nothing")
	}
	// Unknown app surfaces as a search error.
	if _, code := getConfig(t, ts.URL, "app=NOPE&workload=B&cap=70&region=r&arch=crill"); code != 502 {
		t.Errorf("unknown app should 502, got %d", code)
	}
}

// TestConcurrentServing hammers lookup/report on overlapping keys from 32
// goroutines (run under -race in CI) and checks consistency after.
func TestConcurrentServing(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	const goroutines = 32
	const perG = 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	client := ts.Client()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				region := fmt.Sprintf("r%d", i%4)
				k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: region}
				perf := float64(1 + (g*perG+i)%89)
				body, _ := json.Marshal([]ReportRequest{{Key: k, Cfg: arcs.ConfigValues{Threads: 2 + g%30}, Perf: perf}})
				resp, err := client.Post(ts.URL+"/v1/reports", "application/json", bytes.NewReader(body))
				if err != nil || resp.StatusCode != 200 {
					failures.Add(1)
				}
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = client.Get(ts.URL + "/v1/config?app=SP&workload=B&cap=75&region=" + region)
				if err != nil || resp.StatusCode != 200 {
					failures.Add(1)
				}
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d request failures under concurrency", n)
	}
	if st.Len() != 4 {
		t.Errorf("store has %d keys, want 4", st.Len())
	}
	if err := st.Err(); err != nil {
		t.Errorf("store error after hammer: %v", err)
	}
}

// scrapeMetric reads one un-labelled metric value from /metrics.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 && !strings.HasPrefix(line, "#") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestSearchEvalCacheWarm: a repeated server-side search over the same
// context is served entirely by the eval cache — the fresh-probe (miss)
// counter does not move while the hit counter does. The search repeats
// because the requested region never executes, so the store stays cold.
func TestSearchEvalCacheWarm(t *testing.T) {
	ts := newTestServer(t, Config{SearchBudget: 6, SearchParallelism: 4})

	if _, code := getConfig(t, ts.URL, "app=SYNTH&workload=3&cap=70&region=no_such_region&arch=crill"); code != 404 {
		t.Fatalf("ghost region lookup should 404 after searching, got %d", code)
	}
	coldMisses := scrapeMetric(t, ts.URL, "arcsd_evalcache_misses_total")
	coldHits := scrapeMetric(t, ts.URL, "arcsd_evalcache_hits_total")
	if coldMisses == 0 {
		t.Fatal("cold search recorded no cache misses")
	}
	if entries := scrapeMetric(t, ts.URL, "arcsd_evalcache_entries"); entries == 0 {
		t.Fatal("cold search cached nothing")
	}

	if _, code := getConfig(t, ts.URL, "app=SYNTH&workload=3&cap=70&region=no_such_region&arch=crill"); code != 404 {
		t.Fatalf("second lookup should 404, got %d", code)
	}
	warmMisses := scrapeMetric(t, ts.URL, "arcsd_evalcache_misses_total")
	warmHits := scrapeMetric(t, ts.URL, "arcsd_evalcache_hits_total")
	if warmMisses != coldMisses {
		t.Errorf("repeat search did %g fresh probes, want 0", warmMisses-coldMisses)
	}
	if warmHits <= coldHits {
		t.Error("repeat search never hit the eval cache")
	}
	// A different cap is a different context: fresh probes again.
	getConfig(t, ts.URL, "app=SYNTH&workload=3&cap=55&region=no_such_region&arch=crill")
	if m := scrapeMetric(t, ts.URL, "arcsd_evalcache_misses_total"); m <= warmMisses {
		t.Error("different cap reused cache entries; capW must be part of the key")
	}
	if inflight := scrapeMetric(t, ts.URL, "arcsd_evalcache_inflight"); inflight != 0 {
		t.Errorf("inflight gauge = %g at rest", inflight)
	}
}
