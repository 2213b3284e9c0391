package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// TestDigestEndpoint checks /v1/digest standalone: the per-shard
// digests must partition the store's keys with the stored versions,
// always as a KindDigest frame, and reject bad shard numbers.
func TestDigestEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	keys := map[string]uint64{}
	for i := 0; i < 20; i++ {
		k := arcs.HistoryKey{App: "BT", Workload: "C", CapW: float64(50 + i), Region: "r"}
		st.Save(k, arcs.ConfigValues{Threads: 4}, 2)
		st.Save(k, arcs.ConfigValues{Threads: 8}, 1) // version 2
		keys[k.String()] = 2
	}

	got := map[string]uint64{}
	for shard := 0; shard < store.NumShards; shard++ {
		// No Accept header: the digest is a frame regardless.
		resp, err := http.Get(fmt.Sprintf("%s/v1/digest?shard=%d", ts.URL, shard))
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != codec.ContentType {
			t.Fatalf("digest content-type = %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		kind, payload, _, err := codec.Frame(buf.Bytes())
		if err != nil || kind != codec.KindDigest {
			t.Fatalf("digest frame: kind %#x err %v", kind, err)
		}
		var dec codec.Decoder
		d, err := dec.DecodeDigest(payload)
		if err != nil {
			t.Fatal(err)
		}
		if int(d.Shard) != shard {
			t.Fatalf("digest shard = %d, want %d", d.Shard, shard)
		}
		for _, e := range d.Entries {
			got[e.Key] = e.Version
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("digests cover %d keys, store has %d", len(got), len(keys))
	}
	for ck, v := range keys {
		if got[ck] != v {
			t.Fatalf("digest version for %q = %d, want %d", ck, got[ck], v)
		}
	}

	for _, q := range []string{"", "shard=-1", "shard=16", "shard=x"} {
		resp, err := http.Get(ts.URL + "/v1/digest?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("digest %q status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestMergeEndpoint checks /v1/merge: versioned entry frames are applied
// under Supersedes (idempotent re-sends merge zero), serve afterwards,
// non-finite perf is rejected, and a JSON body is refused with 415
// without touching the store.
func TestMergeEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := newTestServer(t, Config{Store: st})

	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "main"}
	post := func(body []byte, ct string) (int, map[string]any) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/merge", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	var enc codec.Encoder
	body := enc.AppendEntry(nil, &codec.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 16}, Perf: 1.5, Version: 7})
	code, out := post(body, codec.ContentType)
	if code != http.StatusOK || out["saved"] != float64(1) {
		t.Fatalf("merge = %d %v, want 200 saved=1", code, out)
	}
	// Idempotent: the identical entry merges zero the second time.
	if code, out = post(body, codec.ContentType); code != http.StatusOK || out["saved"] != float64(0) {
		t.Fatalf("re-merge = %d %v, want 200 saved=0", code, out)
	}
	if e, ok := st.Get(k); !ok || e.Version != 7 || e.Cfg.Threads != 16 {
		t.Fatalf("merged entry = %+v ok=%v", e, ok)
	}

	// Several entries: a concatenation of KindEntry frames, higher
	// version wins.
	ce := codec.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 32}, Perf: 1.2, Version: 9}
	ce2 := codec.Entry{Key: arcs.HistoryKey{App: "LU", Region: "r"}, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 3, Version: 1}
	bin := enc.AppendEntry(nil, &ce)
	bin = enc.AppendEntry(bin, &ce2)
	if code, out = post(bin, codec.ContentType); code != http.StatusOK || out["saved"] != float64(2) {
		t.Fatalf("binary merge = %d %v, want 200 saved=2", code, out)
	}
	if e, _ := st.Get(k); e.Version != 9 || e.Cfg.Threads != 32 {
		t.Fatalf("after binary merge entry = %+v", e)
	}

	bad := enc.AppendEntry(nil, &codec.Entry{Key: arcs.HistoryKey{App: "X", Region: "r"}, Perf: math.NaN(), Version: 1})
	if code, _ = post(bad, codec.ContentType); code != http.StatusBadRequest {
		t.Fatalf("bad merge status = %d, want 400", code)
	}

	// A JSON body is refused outright: 415, a JSON error, no merge.
	before := st.Entries()
	jsonBody, _ := json.Marshal([]store.Entry{{Key: k, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 0.5, Version: 99}})
	if code, out = post(jsonBody, "application/json"); code != http.StatusUnsupportedMediaType || out["error"] == nil {
		t.Fatalf("JSON merge = %d %v, want 415 with a JSON error", code, out)
	}
	if after := st.Entries(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused JSON merge changed the store: %+v -> %+v", before, after)
	}
}

// TestFleetLookupForwarding checks the /v1/config proxy path: a fleet
// member that does not own a key forwards the lookup one hop to the
// owner, marks the hop with the forwarded header, and an
// already-forwarded request is answered locally no matter who owns it.
func TestFleetLookupForwarding(t *testing.T) {
	// Stub owner: answers every config lookup and records the header.
	var sawForwarded bool
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/config" {
			http.NotFound(w, r)
			return
		}
		sawForwarded = r.Header.Get(codec.ForwardedHeader) != ""
		var enc codec.Encoder
		w.Header().Set("Content-Type", codec.ContentType)
		_, _ = w.Write(enc.AppendConfigAnswer(nil, &codec.ConfigAnswer{
			Cfg: arcs.ConfigValues{Threads: 64}, Perf: 1.25, Version: 3, Source: "exact",
		}))
	}))
	t.Cleanup(owner.Close)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self := "http://self.invalid"
	peer := storeclient.New(owner.URL)
	fl, err := fleet.New(fleet.Config{
		Self:  self,
		Nodes: []string{self, owner.URL},
		// One owner per key: whatever self does not own, the stub does.
		Replicas: 1,
		Store:    st,
		Peers:    map[string]fleet.Peer{owner.URL: peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{
		Store: st, Fleet: fl,
		PeerClient: func(name string) *storeclient.Client {
			if name == owner.URL {
				return peer
			}
			return nil
		},
	})

	// Find a key the stub owns.
	var stubKey arcs.HistoryKey
	for i := 0; ; i++ {
		k := arcs.HistoryKey{App: "BT", Workload: "A", CapW: 70, Region: fmt.Sprintf("r%d", i)}
		if fl.View().Owners(k.String(), nil)[0] == owner.URL {
			stubKey = k
			break
		}
	}

	q := fmt.Sprintf("app=%s&workload=%s&cap=%g&region=%s&fallback=0&search=0",
		stubKey.App, stubKey.Workload, stubKey.CapW, stubKey.Region)
	cr, code := getConfig(t, ts.URL, q)
	if code != http.StatusOK || cr.Cfg.Threads != 64 || cr.Version != 3 {
		t.Fatalf("forwarded lookup = %d %+v, want the stub's answer", code, cr)
	}
	if !sawForwarded {
		t.Fatal("forwarded lookup did not carry the forwarded header")
	}

	// Already-forwarded request for the same (unowned, absent) key: no
	// second hop, answered locally as a miss.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/config?"+q, nil)
	req.Header.Set(codec.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("already-forwarded lookup status = %d, want 404 (local miss)", resp.StatusCode)
	}
}

// liveFleet is an n-member fleet of real servers on loopback listeners,
// each over its own store, with the members' stores and engines in
// member-list order. Every server is built from srv with its own store,
// fleet and peer clients filled in.
type liveFleet struct {
	names  []string
	stores []*store.Store
	fleets []*fleet.Fleet
}

func newLiveFleet(t *testing.T, n, replicas int, srv Config) *liveFleet {
	t.Helper()
	lf := &liveFleet{}
	servers := make([]*httptest.Server, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		lf.names = append(lf.names, "http://"+servers[i].Listener.Addr().String())
	}
	for i, ts := range servers {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		peers := map[string]*storeclient.Client{}
		fpeers := map[string]fleet.Peer{}
		for _, name := range lf.names {
			if name != lf.names[i] {
				peers[name] = storeclient.New(name, storeclient.WithRetries(0))
				fpeers[name] = peers[name]
			}
		}
		fl, err := fleet.New(fleet.Config{Self: lf.names[i], Nodes: lf.names, Replicas: replicas, Store: st, Peers: fpeers})
		if err != nil {
			t.Fatal(err)
		}
		srv.Store, srv.Fleet = st, fl
		srv.PeerClient = func(name string) *storeclient.Client { return peers[name] }
		ts.Config.Handler = New(srv)
		ts.Start()
		t.Cleanup(ts.Close)
		lf.stores = append(lf.stores, st)
		lf.fleets = append(lf.fleets, fl)
	}
	return lf
}

// TestFleetReportForwarding checks the server-side write path over
// HTTP: a /v1/reports batch posted to a member that owns none of its
// keys is forwarded to the owners, which author one version and
// replicate it to each other. The ack counts every report, both owners
// hold each entry at the same version, and the receiver keeps none.
func TestFleetReportForwarding(t *testing.T) {
	lf := newLiveFleet(t, 3, 2, Config{})
	receiver, view := lf.names[0], lf.fleets[0].View()
	var batch []codec.Report
	for i := 0; len(batch) < 8; i++ {
		k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: float64(50 + i%4*10), Region: fmt.Sprintf("r%d", i)}
		if !slices.Contains(view.Owners(k.String(), nil), receiver) {
			batch = append(batch, codec.Report{Key: k, Cfg: arcs.ConfigValues{Threads: 1 + i%16}, Perf: 1 + float64(i%5)})
		}
	}
	if out := postReport(t, receiver, batch); out["saved"] != float64(len(batch)) {
		t.Fatalf("ack = %v, want saved=%d", out, len(batch))
	}
	index := map[string]int{}
	for i, name := range lf.names {
		index[name] = i
	}
	for _, rep := range batch {
		if _, ok := lf.stores[0].Get(rep.Key); ok {
			t.Errorf("receiver holds %v, which it does not own", rep.Key)
		}
		var first store.Entry
		for i, o := range view.Owners(rep.Key.String(), nil) {
			e, ok := lf.stores[index[o]].Get(rep.Key)
			if !ok || e.Cfg != rep.Cfg || e.Perf != rep.Perf {
				t.Fatalf("owner %s holds %+v (ok=%v), want report %+v", o, e, ok, rep)
			}
			if i == 0 {
				first = e
			} else if e.Version != first.Version {
				t.Errorf("key %v: owners hold versions %d and %d", rep.Key, first.Version, e.Version)
			}
		}
	}
}

// fixedSearcher answers every search with one region's result at the
// requested cap.
type fixedSearcher struct{ res SearchResult }

func (f fixedSearcher) Search(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	res := f.res
	res.CapW = req.CapW
	return []SearchResult{res}, nil
}

// TestFleetSearchedResultReplicates: a searched lookup's results take
// the report write path, so the co-owner holds the entry as soon as the
// lookup answers, before any anti-entropy Tick, and a lookup landing
// there is an exact hit instead of a second search.
func TestFleetSearchedResultReplicates(t *testing.T) {
	res := SearchResult{Region: "x_solve", Cfg: arcs.ConfigValues{Threads: 24, Chunk: 8}, Perf: 1.5}
	lf := newLiveFleet(t, 2, 2, Config{Searcher: fixedSearcher{res}, SearchBudget: 4})
	q := "app=SP&workload=B&cap=70&region=x_solve&arch=crill"
	cr, code := getConfig(t, lf.names[0], q)
	if code != http.StatusOK || cr.Source != "searched" {
		t.Fatalf("first lookup = %d %+v, want 200 searched", code, cr)
	}
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	searched, _ := lf.stores[0].Get(k)
	if e, ok := lf.stores[1].Get(k); !ok || e != searched {
		t.Fatalf("co-owner holds %+v (ok=%v) before any Tick, want %+v", e, ok, searched)
	}
	if cr, code = getConfig(t, lf.names[1], q); code != http.StatusOK || cr.Source != "exact" {
		t.Fatalf("co-owner lookup = %d %+v, want 200 exact", code, cr)
	}
	if got := lf.fleets[0].Stats().Replicated; got != 1 {
		t.Errorf("Replicated = %d, want 1", got)
	}
}

// TestFleetNearestCapProxyKey: a nearest-cap (fallback) lookup answers
// the stored entry's key, cap distance, config and perf whether it lands
// on the key's owner, which answers locally, or on a non-owner, which
// proxies it one hop to the owner.
func TestFleetNearestCapProxyKey(t *testing.T) {
	lf := newLiveFleet(t, 3, 1, Config{})
	names := lf.names
	stored := store.Entry{
		Key: arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"},
		Cfg: arcs.ConfigValues{Threads: 12, Chunk: 4}, Perf: 1.75, Version: 2,
	}
	for _, st := range lf.stores {
		st.Merge(stored) // every replica holds the same entry
	}
	view := lf.fleets[0].View()

	queried := stored.Key
	queried.CapW = 80
	owner := view.Owners(queried.String(), nil)[0]
	nonOwner := names[0]
	if nonOwner == owner {
		nonOwner = names[1]
	}
	q := "app=SP&workload=B&cap=80&region=x_solve&search=0"
	fromOwner, code := getConfig(t, owner, q)
	if code != http.StatusOK {
		t.Fatalf("owner lookup status %d", code)
	}
	proxied, code := getConfig(t, nonOwner, q)
	if code != http.StatusOK {
		t.Fatalf("non-owner lookup status %d", code)
	}
	if fromOwner.Source != "fallback" || fromOwner.Key != stored.Key || fromOwner.CapDistance != 10 {
		t.Fatalf("owner answer = %+v, want the stored cap-70 entry as a fallback", fromOwner)
	}
	if proxied.Key != fromOwner.Key || proxied.CapDistance != fromOwner.CapDistance ||
		proxied.Cfg != fromOwner.Cfg || proxied.Perf != fromOwner.Perf {
		t.Fatalf("proxied answer %+v differs from the owner's %+v", proxied, fromOwner)
	}
}

// TestFleetHealthAndMetrics checks the observability wiring: /healthz
// grows a fleet section and /metrics the arcsd_fleet_* series when the
// server is a fleet member.
func TestFleetHealthAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self := "http://a.invalid"
	other := "http://b.invalid"
	peer := storeclient.New(other)
	fl, err := fleet.New(fleet.Config{
		Self: self, Nodes: []string{self, other}, Replicas: 2,
		Store: st, Peers: map[string]fleet.Peer{other: peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st, Fleet: fl, PeerClient: func(name string) *storeclient.Client {
		if name == other {
			return peer
		}
		return nil
	}})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Fleet == nil || hr.Fleet.Self != self || len(hr.Fleet.Nodes) != 2 || hr.Fleet.Replicas != 2 {
		t.Fatalf("healthz fleet section = %+v", hr.Fleet)
	}
	if hr.Fleet.Epoch != 1 {
		t.Fatalf("healthz fleet epoch = %d, want 1", hr.Fleet.Epoch)
	}
	if hr.Fleet.OwnedShare <= 0 || hr.Fleet.OwnedShare >= 1 {
		t.Fatalf("owned share = %v, want within (0,1)", hr.Fleet.OwnedShare)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, series := range []string{
		"arcsd_fleet_nodes 2", "arcsd_fleet_replicas 2",
		"arcsd_fleet_sweeps_total 0", "arcsd_fleet_epoch 1",
		"arcsd_fleet_peers_suspect 0", "arcsd_fleet_peers_dead 0",
		"arcsd_fleet_membership_changes_total 0",
		"arcsd_fleet_transferred_in_total 0", "arcsd_fleet_drained_total 0",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Fatalf("metrics missing %q in:\n%s", series, buf.String())
		}
	}
}
