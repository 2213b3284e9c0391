package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/store"
)

// getNeighbors fetches /v1/neighbors and decodes the JSON array.
func getNeighbors(t *testing.T, base, query string) ([]arcs.Neighbor, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/neighbors?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out []arcs.Neighbor
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// TestNeighborsEndpoint checks /v1/neighbors end to end: ranked answers
// under the shared distance order, the max bound, empty-array cold
// starts, and parameter validation.
func TestNeighborsEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	// Same app/region: caps 60 and 85 on workload B, one workload-C
	// entry, plus a different region that must never appear.
	st.Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 60, Region: "r"}, arcs.ConfigValues{Threads: 8}, 1.0)
	st.Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 85, Region: "r"}, arcs.ConfigValues{Threads: 16}, 2.0)
	st.Save(arcs.HistoryKey{App: "SP", Workload: "C", CapW: 70, Region: "r"}, arcs.ConfigValues{Threads: 4}, 3.0)
	st.Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "other"}, arcs.ConfigValues{Threads: 2}, 4.0)

	out, code := getNeighbors(t, ts.URL, "app=SP&workload=B&cap=70&region=r")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out) != 3 {
		t.Fatalf("got %d neighbours, want 3: %+v", len(out), out)
	}
	// Ranked: cap 60 (dist 10, lower-cap tie rule not needed), cap 85
	// (dist 15), then the cross-workload entry (penalised past any
	// same-workload cap delta).
	if out[0].Key.CapW != 60 || out[1].Key.CapW != 85 {
		t.Errorf("cap order = %g, %g; want 60, 85", out[0].Key.CapW, out[1].Key.CapW)
	}
	if out[2].Key.Workload != "C" {
		t.Errorf("third neighbour = %+v, want workload C last", out[2])
	}
	if out[0].Dist >= out[1].Dist || out[1].Dist >= out[2].Dist {
		t.Errorf("distances not ascending: %g, %g, %g", out[0].Dist, out[1].Dist, out[2].Dist)
	}

	// max truncates after ranking.
	out, _ = getNeighbors(t, ts.URL, "app=SP&workload=B&cap=70&region=r&max=1")
	if len(out) != 1 || out[0].Key.CapW != 60 {
		t.Errorf("max=1 = %+v, want just cap 60", out)
	}

	// A context with no neighbours is 200 with an empty array.
	resp, err := http.Get(ts.URL + "/v1/neighbors?app=LULESH&workload=1&cap=70&region=r")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(string(body[:n])), "[") {
		t.Errorf("cold context: status %d body %q, want 200 []", resp.StatusCode, body[:n])
	}

	// Validation: missing app/region, bad cap, out-of-range max, POST.
	for _, q := range []string{
		"workload=B&cap=70&region=r",
		"app=SP&cap=70",
		"app=SP&region=r&cap=nan",
		"app=SP&region=r&cap=70&max=0",
		"app=SP&region=r&cap=70&max=257",
		"app=SP&region=r&cap=70&max=x",
	} {
		if _, code := getNeighbors(t, ts.URL, q); code != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", q, code)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/neighbors", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}

	// The served counter shows up in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "arcsd_neighbors_served_total 4") {
		t.Errorf("metrics missing arcsd_neighbors_served_total 4")
	}
}
