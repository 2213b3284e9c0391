// Wire-format tests: binary clients against this server, JSON (curl)
// clients against the endpoints that serve JSON, and corrupt binary
// input, which must be a 400 and never a panic.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

func binReq(t *testing.T, method, url string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", codec.ContentType)
	if body != nil {
		req.Header.Set("Content-Type", codec.ContentType)
	}
	return req
}

// TestBinaryConfigRoundTrip: a binary client posts a one-record report
// batch and reads the answer back as a ConfigAnswer frame.
func TestBinaryConfigRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	key := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	cfg := arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8, FreqGHz: 2.2, Bind: ompt.BindSpread}

	var enc codec.Encoder
	rep := []codec.Report{{Key: key, Cfg: cfg, Perf: 1.5}}
	resp, err := http.DefaultClient.Do(binReq(t, http.MethodPost, ts.URL+"/v1/reports", enc.AppendReportBatch(nil, rep)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary report status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != codec.ContentType {
		t.Fatalf("ack Content-Type = %q, want %q", ct, codec.ContentType)
	}
	var dec codec.Decoder
	kind, payload, _, err := codec.Frame(body)
	if err != nil || kind != codec.KindAck {
		t.Fatalf("ack frame kind=%#x err=%v", kind, err)
	}
	var ack codec.Ack
	if err := dec.DecodeAck(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Saved != 1 || ack.StoreLen != 1 {
		t.Fatalf("ack = %+v, want saved=1 store_len=1", ack)
	}

	resp, err = http.DefaultClient.Do(binReq(t, http.MethodGet,
		ts.URL+"/v1/config?app=SP&workload=B&cap=70&region=x_solve", nil))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary config status %d: %s", resp.StatusCode, body)
	}
	kind, payload, _, err = codec.Frame(body)
	if err != nil || kind != codec.KindConfigAnswer {
		t.Fatalf("config frame kind=%#x err=%v", kind, err)
	}
	var ans codec.ConfigAnswer
	if err := dec.DecodeConfigAnswer(payload, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Key != key || ans.Cfg != cfg || ans.Perf != 1.5 || ans.Source != "exact" || ans.Version != 1 {
		t.Fatalf("binary config answer = %+v", ans)
	}
}

// TestBinaryReportBatch: one KindReportBatch frame on /v1/reports saves
// every record in a single round trip.
func TestBinaryReportBatch(t *testing.T) {
	ts := newTestServer(t, Config{})
	reports := make([]codec.Report, 5)
	for i := range reports {
		reports[i] = codec.Report{
			Key:  arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: string(rune('a' + i))},
			Cfg:  arcs.ConfigValues{Threads: 2 + i},
			Perf: float64(i + 1),
		}
	}
	var enc codec.Encoder
	resp, err := http.DefaultClient.Do(binReq(t, http.MethodPost, ts.URL+"/v1/reports", enc.AppendReportBatch(nil, reports)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var dec codec.Decoder
	kind, payload, _, err := codec.Frame(body)
	if err != nil || kind != codec.KindAck {
		t.Fatalf("batch ack kind=%#x err=%v", kind, err)
	}
	var ack codec.Ack
	if err := dec.DecodeAck(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Saved != 5 || ack.StoreLen != 5 {
		t.Fatalf("batch ack = %+v, want 5/5", ack)
	}
}

// TestJSONClientUnaffected: a client that never mentions the binary
// type gets JSON from the curl-facing endpoints. The streamed dump is
// JSON only: even a binary Accept gets the JSON array.
func TestJSONClientUnaffected(t *testing.T) {
	ts := newTestServer(t, Config{})
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}
	postReport(t, ts.URL, []ReportRequest{{Key: k, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 2}})

	cr, code := getConfig(t, ts.URL, "app=SP&workload=B&cap=70&region=r")
	if code != 200 || cr.Source != "exact" || cr.Config.Threads != 4 {
		t.Fatalf("JSON config = %+v (code %d)", cr, code)
	}

	resp, err := http.DefaultClient.Do(binReq(t, http.MethodGet, ts.URL+"/v1/dump", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("dump Content-Type = %q", ct)
	}
	var entries []struct {
		Key  arcs.HistoryKey `json:"key"`
		Perf float64         `json:"perf"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatalf("streamed dump is not a valid JSON array: %v", err)
	}
	if len(entries) != 1 || entries[0].Key != k || entries[0].Perf != 2 {
		t.Fatalf("dump = %+v", entries)
	}
}

// TestCorruptBinaryBodyIs400 throws damaged frames at the report
// endpoint: every one must come back 400 with a JSON error, and the
// daemon must keep serving afterwards. A single-report frame is a
// verified frame of a kind /v1/reports no longer accepts.
func TestCorruptBinaryBodyIs400(t *testing.T) {
	ts := newTestServer(t, Config{})
	var enc codec.Encoder
	rep := codec.Report{Key: arcs.HistoryKey{App: "SP", Region: "r"}, Perf: 1}
	good := enc.AppendReportBatch(nil, []codec.Report{rep})
	single := enc.AppendReport(nil, &rep)

	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xFF
	wrongKind := enc.AppendAck(nil, &codec.Ack{Saved: 1}) // verified frame, wrong kind
	cases := map[string][]byte{
		"garbage":    []byte("\xa7\x01 not a frame"),
		"empty":      {},
		"truncated":  good[:len(good)-3],
		"bit-flip":   flipped,
		"wrong-kind": wrongKind,
		"single":     single,
	}
	for name, body := range cases {
		resp, err := http.DefaultClient.Do(binReq(t, http.MethodPost, ts.URL+"/v1/reports", body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: error Content-Type = %q, want JSON", name, ct)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q not a JSON error", name, b)
		}
	}

	// The server still works after the abuse.
	resp, err := http.DefaultClient.Do(binReq(t, http.MethodPost, ts.URL+"/v1/reports", good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid report after corrupt ones: status %d", resp.StatusCode)
	}
}

// TestJSONReportsEndpoint: /v1/reports accepts the plain JSON array
// form too, for curl.
func TestJSONReportsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	body, _ := json.Marshal([]ReportRequest{
		{Key: arcs.HistoryKey{App: "SP", Region: "a"}, Perf: 1},
		{Key: arcs.HistoryKey{App: "SP", Region: "b"}, Perf: 2},
	})
	resp, err := http.Post(ts.URL+"/v1/reports", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out["saved"] != float64(2) {
		t.Fatalf("JSON /v1/reports: status %d out %v", resp.StatusCode, out)
	}
}
