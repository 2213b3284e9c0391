package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"arcs/internal/store"
)

// goldenBody issues one request and returns the status and raw body.
func goldenBody(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestGoldenJSONBodies pins the exact bytes of the JSON bodies clients
// decode (everything but the clock-dependent /healthz): field names,
// field order, omitted zero fields and the trailing newline. A change
// here breaks every JSON client.
func TestGoldenJSONBodies(t *testing.T) {
	ts := newTestServer(t, Config{})
	reports := `[{"key":{"app":"BT","workload":"B","cap_w":70,"region":"x_solve"},"config":{"threads":8,"schedule":2,"chunk":16,"bind":2},"perf":1.5},` +
		`{"key":{"app":"BT","workload":"C","cap_w":0,"region":"x_solve"},"config":{"threads":32,"freq_ghz":2.1},"perf":0.25}]`

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self, other := "http://a.invalid", "http://127.0.0.1:1"
	member, _ := newMemberServer(t, st, self, other)

	for _, c := range []struct {
		name, method, url, body string
		status                  int
		want                    string
	}{
		{"reports-ack", http.MethodPost, ts.URL + "/v1/reports", reports, http.StatusOK,
			`{"saved":2,"store_len":2}` + "\n"},
		{"config-exact", http.MethodGet, ts.URL + "/v1/config?app=BT&workload=B&cap=70&region=x_solve", "", http.StatusOK,
			`{"key":{"app":"BT","workload":"B","cap_w":70,"region":"x_solve"},"config":{"threads":8,"schedule":2,"chunk":16,"bind":2},"perf":1.5,"version":1,"source":"exact"}` + "\n"},
		{"config-fallback", http.MethodGet, ts.URL + "/v1/config?app=BT&workload=B&cap=75.5&region=x_solve&search=0", "", http.StatusOK,
			`{"key":{"app":"BT","workload":"B","cap_w":70,"region":"x_solve"},"config":{"threads":8,"schedule":2,"chunk":16,"bind":2},"perf":1.5,"version":1,"source":"fallback","cap_distance":5.5}` + "\n"},
		{"dump", http.MethodGet, ts.URL + "/v1/dump", "", http.StatusOK,
			`[{"key":{"app":"BT","workload":"B","cap_w":70,"region":"x_solve"},"config":{"threads":8,"schedule":2,"chunk":16,"bind":2},"perf":1.5,"version":1}` + "\n" +
				`,{"key":{"app":"BT","workload":"C","cap_w":0,"region":"x_solve"},"config":{"threads":32,"schedule":0,"chunk":0,"freq_ghz":2.1},"perf":0.25,"version":1}` + "\n]"},
		{"neighbors", http.MethodGet, ts.URL + "/v1/neighbors?app=BT&workload=B&cap=80&region=x_solve", "", http.StatusOK,
			`[{"key":{"app":"BT","workload":"B","cap_w":70,"region":"x_solve"},"config":{"threads":8,"schedule":2,"chunk":16,"bind":2},"perf":1.5,"version":1,"dist":10},` +
				`{"key":{"app":"BT","workload":"C","cap_w":0,"region":"x_solve"},"config":{"threads":32,"schedule":0,"chunk":0,"freq_ghz":2.1},"perf":0.25,"version":1,"dist":1080}]` + "\n"},
		{"ping-standalone", http.MethodGet, ts.URL + "/v1/ping", "", http.StatusOK,
			`{"epoch":0,"nodes":null}` + "\n"},
		{"ping-member", http.MethodGet, member + "/v1/ping", "", http.StatusOK,
			`{"epoch":1,"nodes":["http://127.0.0.1:1","http://a.invalid"]}` + "\n"},
		{"transfer-409", http.MethodGet, member + "/v1/transfer?shard=0&for=" + other + "&epoch=9", "", http.StatusConflict,
			`{"epoch":1,"nodes":["http://127.0.0.1:1","http://a.invalid"]}` + "\n"},
		{"join", http.MethodPost, member + "/v1/join", `{"node":"http://127.0.0.1:2"}`, http.StatusOK,
			`{"applied":true,"epoch":2,"nodes":["http://127.0.0.1:1","http://127.0.0.1:2","http://a.invalid"]}` + "\n"},
	} {
		status, got := goldenBody(t, c.method, c.url, c.body)
		if status != c.status || got != c.want {
			t.Errorf("%s: status %d body\n%q\nwant status %d body\n%q", c.name, status, got, c.status, c.want)
		}
	}
}
