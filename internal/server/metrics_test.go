package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/store"
)

// standaloneFamilies pins every family a standalone arcsd serves; a
// series added or lost shows up as a diff here.
var standaloneFamilies = []string{
	"arcsd_handler_panics_total",
	"arcsd_lookup_fallbacks_total",
	"arcsd_lookup_hits_total",
	"arcsd_lookup_misses_total",
	"arcsd_merged_entries_total",
	"arcsd_neighbors_served_total",
	"arcsd_reported_entries_total",
	"arcsd_request_seconds",
	"arcsd_requests_total",
	"arcsd_search_dedup_total",
	"arcsd_search_errors_total",
	"arcsd_search_panics_total",
	"arcsd_search_shed_total",
	"arcsd_searches_total",
	"arcsd_store_compactions_total",
	"arcsd_store_degraded",
	"arcsd_store_dropped_saves_total",
	"arcsd_store_entries",
	"arcsd_store_snapshot_bytes",
	"arcsd_store_wal_bytes",
	"arcsd_store_wal_records",
}

// fleetFamilies pins the families a fleet member serves on top of
// standaloneFamilies.
var fleetFamilies = []string{
	"arcsd_fleet_drain_errors_total",
	"arcsd_fleet_drained_total",
	"arcsd_fleet_epoch",
	"arcsd_fleet_fallbacks_total",
	"arcsd_fleet_heartbeat_failures_total",
	"arcsd_fleet_heartbeats_total",
	"arcsd_fleet_lookup_forwards_total",
	"arcsd_fleet_membership_applied_total",
	"arcsd_fleet_membership_changes_total",
	"arcsd_fleet_nodes",
	"arcsd_fleet_owned_share",
	"arcsd_fleet_peers_dead",
	"arcsd_fleet_peers_suspect",
	"arcsd_fleet_repairs_total",
	"arcsd_fleet_replicas",
	"arcsd_fleet_replicated_total",
	"arcsd_fleet_report_forwards_total",
	"arcsd_fleet_sweeps_total",
	"arcsd_fleet_transfer_epoch_conflicts_total",
	"arcsd_fleet_transfer_retries_total",
	"arcsd_fleet_transferred_in_total",
	"arcsd_fleet_transferred_out_total",
}

// driveAndScrape runs a fixed request sequence against base and returns
// its /metrics body.
func driveAndScrape(t *testing.T, base string) string {
	t.Helper()
	postReport(t, base, []codec.Report{
		{Key: arcs.HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"}, Cfg: arcs.ConfigValues{Threads: 8}, Perf: 1.5},
		{Key: arcs.HistoryKey{App: "BT", Workload: "C", Region: "x_solve"}, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 2},
	})
	getConfig(t, base, "app=BT&workload=B&cap=70&region=x_solve")
	getConfig(t, base, "app=BT&workload=B&cap=75&region=x_solve&search=0")
	getConfig(t, base, "app=LU&region=main&search=0")
	getConfig(t, base, "region=main")
	getNeighbors(t, base, "app=BT&workload=B&cap=80&region=x_solve")
	var enc codec.Encoder
	body := enc.AppendEntry(nil, &codec.Entry{Key: arcs.HistoryKey{App: "SP", Region: "main"}, Perf: 1, Version: 3})
	resp, err := http.Post(base+"/v1/merge", codec.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getBody(t, base+"/healthz")
	return getBody(t, base+"/metrics")
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkExposition parses a scrape and checks the text format: each
// family has one HELP and one TYPE line ahead of its samples, names do
// not repeat and come out sorted, every sample belongs to the family
// above it and has a value that parses. It returns the family names.
func checkExposition(t *testing.T, body string) []string {
	t.Helper()
	var names []string
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if slices.Contains(names, name) {
				t.Errorf("family %s declared twice", name)
			}
			if help == "" {
				t.Errorf("family %s has an empty HELP", name)
			}
			names = append(names, name)
			continue
		}
		if len(names) == 0 {
			t.Fatalf("line before the first HELP: %q", line)
		}
		cur := names[len(names)-1]
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if name != cur || types[cur] != "" {
				t.Errorf("TYPE line %q out of place under %s", line, cur)
			}
			types[cur] = typ
			continue
		}
		if types[cur] == "" {
			t.Errorf("sample %q ahead of the TYPE line of %s", line, cur)
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Errorf("malformed sample %q", line)
			continue
		}
		metric, _, _ := strings.Cut(series, "{")
		if metric != cur && !(types[cur] == "summary" && (metric == cur+"_sum" || metric == cur+"_count")) {
			t.Errorf("sample %q under family %s", line, cur)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("sample %q: value does not parse: %v", line, err)
		}
	}
	for _, name := range names {
		if types[name] == "" {
			t.Errorf("family %s has no TYPE line", name)
		}
	}
	if !slices.IsSorted(names) {
		t.Errorf("families not sorted: %v", names)
	}
	return names
}

func TestMetricsExpositionStandalone(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := driveAndScrape(t, ts.URL)
	names := checkExposition(t, body)
	if !slices.Equal(names, standaloneFamilies) {
		t.Errorf("families = %v\nwant %v", names, standaloneFamilies)
	}
	if strings.Contains(body, "arcsd_fleet_") {
		t.Errorf("standalone scrape carries fleet series:\n%s", body)
	}
	for _, want := range []string{
		`arcsd_requests_total{endpoint="config",code="200"} 2`,
		`arcsd_requests_total{endpoint="config",code="400"} 1`,
		`arcsd_requests_total{endpoint="config",code="404"} 1`,
		`arcsd_request_seconds_count{endpoint="config"} 4`,
		`arcsd_request_seconds_count{endpoint="healthz"} 1`,
		"arcsd_lookup_hits_total 1", "arcsd_lookup_fallbacks_total 1", "arcsd_lookup_misses_total 1",
		"arcsd_reported_entries_total 2", "arcsd_neighbors_served_total 2",
		"arcsd_merged_entries_total 1", "arcsd_store_entries 3", "arcsd_store_degraded 0",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestMetricsExpositionFleetMember(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	base, _ := newMemberServer(t, st, "http://a.invalid", "http://127.0.0.1:1")
	body := driveAndScrape(t, base)
	names := checkExposition(t, body)
	want := append(slices.Clone(standaloneFamilies), fleetFamilies...)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("families = %v\nwant %v", names, want)
	}
	for _, want := range []string{
		"arcsd_merged_entries_total 1", "arcsd_fleet_nodes 2", "arcsd_fleet_replicas 2", "arcsd_fleet_epoch 1",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestMetricsScrapeDuringTraffic scrapes while requests are counted
// from several goroutines: no observation is lost, and under -race no
// access is unsynchronised.
func TestMetricsScrapeDuringTraffic(t *testing.T) {
	ts := newTestServer(t, Config{})
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				paths := []string{"/v1/ping"}
				if i%10 == 0 {
					paths = append(paths, "/metrics")
				}
				for _, path := range paths {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	body := getBody(t, ts.URL+"/metrics")
	want := fmt.Sprintf(`arcsd_requests_total{endpoint="ping",code="200"} %d`, workers*perWorker)
	if !strings.Contains(body, want+"\n") {
		t.Fatalf("metrics missing %q in:\n%s", want, body)
	}
}

// TestObserveConcurrentStatuses races first sightings of several status
// codes on one endpoint: each code ends up in exactly one slot, and no
// request is lost.
func TestObserveConcurrentStatuses(t *testing.T) {
	ep := newMetrics().endpoint("config")
	codes := []int{200, 400, 404, 405, 429, 500, 502, 503, 504}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range codes {
					ep.observe(codes[(i+g)%len(codes)], time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	got := map[uint32]uint64{}
	for i := range ep.status {
		if c := ep.status[i].code.Load(); c != 0 {
			if _, dup := got[c]; dup {
				t.Errorf("status %d holds two slots", c)
			}
			got[c] = ep.status[i].n.Load()
		}
	}
	for _, c := range codes {
		if got[uint32(c)] != workers*rounds {
			t.Errorf("status %d counted %d times, want %d", c, got[uint32(c)], workers*rounds)
		}
	}
}

// TestObserveAllocatesNothing: counting a request is allocation-free.
func TestObserveAllocatesNothing(t *testing.T) {
	ep := newMetrics().endpoint("config")
	if n := testing.AllocsPerRun(1000, func() { ep.observe(http.StatusOK, time.Millisecond) }); n != 0 {
		t.Fatalf("observe allocates %v per request, want 0", n)
	}
}
