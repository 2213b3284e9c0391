package storeclient_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	. "arcs/internal/storeclient"
)

// newServedTS starts a server over cfg and returns its base URL.
func newServedTS(t *testing.T, cfg server.Config) string {
	t.Helper()
	ts := httptest.NewServer(server.New(cfg))
	t.Cleanup(ts.Close)
	return ts.URL
}

// newFleetNodes spins n independent store+server stacks and returns a
// fleet client over all of them with full replication (replicas = n, so
// every node owns every key — the read-repair tests then control which
// replica is stale by seeding stores directly).
func newFleetNodes(t *testing.T, n int) (*Fleet, []*store.Store) {
	t.Helper()
	stores := make([]*store.Store, n)
	urls := make([]string, n)
	for i := range stores {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores[i] = st
		ts := newServedTS(t, server.Config{Store: st})
		urls[i] = ts
	}
	f, err := NewFleet(urls, n, WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Re-order stores to match the fleet's sorted membership so tests
	// can address "the store behind node f.View().Membership().Nodes[i]".
	byURL := make(map[string]*store.Store, n)
	for i, u := range urls {
		byURL[u] = stores[i]
	}
	ordered := make([]*store.Store, n)
	for i, u := range f.View().Membership().Nodes {
		ordered[i] = byURL[u]
	}
	return f, ordered
}

// startLiveMember runs one real fleet-member daemon stack for the
// live-epoch tests: store, fleet, HTTP server on a pre-bound listener.
// A non-nil pings counts the /v1/ping requests the member serves.
func startLiveMember(t *testing.T, ln net.Listener, self string, nodes []string, epoch uint64, pings *atomic.Int64) *fleet.Fleet {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	newPeer := func(name string) fleet.Peer {
		return New(name, WithRetries(0), WithHTTPClient(&http.Client{Timeout: 2 * time.Second}))
	}
	fl, err := fleet.New(fleet.Config{
		Self: self, Nodes: nodes, Epoch: epoch, Replicas: 2, Store: st, NewPeer: newPeer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = server.New(server.Config{Store: st, Fleet: fl})
	if pings != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/ping" {
				pings.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })
	return fl
}

// startLiveFleet runs n live members at epoch 1 and returns their URLs.
func startLiveFleet(t *testing.T, n int, pings *atomic.Int64) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range urls {
		startLiveMember(t, lns[i], urls[i], urls, 1, pings)
	}
	return urls
}

// TestFleetClientAdoptsNewEpoch: every response advertises the serving
// node's membership epoch; when the fleet grows behind the client's
// back, the next operation observes the higher epoch, refreshes, and
// routes over the grown membership — no client restart.
func TestFleetClientAdoptsNewEpoch(t *testing.T) {
	urls := startLiveFleet(t, 3, nil)
	f, err := NewFleet(urls, 2, WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "live"}
	if err := f.Report(ctx, k, arcs.ConfigValues{Threads: 8}, 2.0); err != nil {
		t.Fatal(err)
	}
	// The first response armed the observer; the next operation adopts.
	if _, err := f.Lookup(ctx, k, LookupOpts{}); err != nil {
		t.Fatal(err)
	}
	if f.View().Epoch() != 1 {
		t.Fatalf("client epoch %d after first ops, want adopted 1", f.View().Epoch())
	}

	// Grow the fleet through the admin endpoint, then bring the joiner up.
	ln4, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url4 := "http://" + ln4.Addr().String()
	m, err := f.View().Peer(urls[0]).Join(ctx, url4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 {
		t.Fatalf("join answered epoch %d, want 2", m.Epoch)
	}
	startLiveMember(t, ln4, url4, m.Nodes, m.Epoch, nil)

	// The join response already carried the new epoch header; the next
	// operation refreshes and the view includes the newcomer.
	if err := f.Report(ctx, k, arcs.ConfigValues{Threads: 16}, 1.5); err != nil {
		t.Fatal(err)
	}
	if f.View().Epoch() != 2 || len(f.View().Membership().Nodes) != 4 {
		t.Fatalf("client view = epoch %d nodes %v, want epoch 2 with 4 nodes", f.View().Epoch(), f.View().Membership().Nodes)
	}
	if f.Refreshes() == 0 {
		t.Fatal("refresh counter never moved")
	}
	if f.View().Peer(url4) == nil {
		t.Fatal("no client for the joined node")
	}
}

// TestFleetClientRefreshNoStampede: concurrent operations that all
// observe the same new epoch refresh once between them — one ping per
// member — instead of each running its own ping round.
func TestFleetClientRefreshNoStampede(t *testing.T) {
	const n, ops = 3, 16
	var pings atomic.Int64
	urls := startLiveFleet(t, n, &pings)
	f, err := NewFleet(urls, 2, WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "stampede"}
	// The client starts at epoch 0; this first response arms the
	// observer with the fleet's epoch 1.
	if err := f.Report(ctx, k, arcs.ConfigValues{Threads: 8}, 2.0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.Lookup(ctx, k, LookupOpts{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := pings.Load(); got > n {
		t.Fatalf("%d concurrent lookups sent %d pings, want at most %d", ops, got, n)
	}
	if got := f.View().Epoch(); got != 1 {
		t.Fatalf("client epoch %d, want adopted 1", got)
	}
}

// TestFleetReadRepair: LookupMerged pushes the winning entry back to
// owners that were missing it or held a stale version, and the repaired
// replica serves the entry afterwards.
func TestFleetReadRepair(t *testing.T) {
	f, stores := newFleetNodes(t, 3)
	ctx := context.Background()
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	cfg := arcs.ConfigValues{Threads: 16, Chunk: 8}

	// Node 0 authored version 2; node 1 is one version behind; node 2
	// never saw the key at all.
	stores[0].Save(k, arcs.ConfigValues{Threads: 8}, 2.0)
	stores[0].Save(k, cfg, 1.5) // version 2
	stores[1].Save(k, arcs.ConfigValues{Threads: 8}, 2.0)

	res, err := f.LookupMerged(ctx, k, LookupOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != cfg || res.Version != 2 || res.Source != "exact" {
		t.Fatalf("merged lookup = %+v, want version-2 winner", res)
	}
	if got := f.ReadRepairs(); got != 2 {
		t.Errorf("ReadRepairs = %d, want 2 (one stale, one missing)", got)
	}
	for i, st := range stores[1:] {
		e, ok := st.Get(k)
		if !ok || e.Cfg != cfg || e.Version != 2 {
			t.Errorf("node %d after repair: entry %+v ok=%v, want version-2 winner", i+1, e, ok)
		}
	}

	// A second merged read finds every replica converged: no new repairs.
	if _, err := f.LookupMerged(ctx, k, LookupOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := f.ReadRepairs(); got != 2 {
		t.Errorf("ReadRepairs after converged read = %d, want still 2", got)
	}
}

// TestFleetReadRepairSkipsFallback: a nearest-cap fallback winner is a
// different context's entry — it must never be written back under the
// queried key.
func TestFleetReadRepairSkipsFallback(t *testing.T) {
	f, stores := newFleetNodes(t, 2)
	ctx := context.Background()
	stored := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 60, Region: "r"}
	queried := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}
	stores[0].Save(stored, arcs.ConfigValues{Threads: 8}, 2.0)

	res, err := f.LookupMerged(ctx, queried, LookupOpts{Fallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "fallback" || res.CapDistance != 10 {
		t.Fatalf("merged lookup = %+v, want fallback at distance 10", res)
	}
	if got := f.ReadRepairs(); got != 0 {
		t.Errorf("ReadRepairs = %d, want 0 — fallback answers must not repair", got)
	}
	for i, st := range stores {
		if _, ok := st.Get(queried); ok {
			t.Errorf("node %d has an entry under the queried key — fallback was written back", i)
		}
	}
}

// TestFleetLookupMergedRanking: an authoritative answer on any replica
// outranks a fresher-looking fallback elsewhere.
func TestFleetLookupMergedRanking(t *testing.T) {
	f, stores := newFleetNodes(t, 2)
	ctx := context.Background()
	k := arcs.HistoryKey{App: "BT", Workload: "C", CapW: 80, Region: "main"}
	exact := arcs.ConfigValues{Threads: 32}

	// Node 0: only a nearby-cap entry (answers as fallback, version 1).
	// Node 1: the exact key (answers authoritatively).
	stores[0].Save(arcs.HistoryKey{App: "BT", Workload: "C", CapW: 75, Region: "main"},
		arcs.ConfigValues{Threads: 4}, 0.5)
	stores[1].Save(k, exact, 9.9)

	res, err := f.LookupMerged(ctx, k, LookupOpts{Fallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" || res.Config != exact {
		t.Fatalf("merged lookup = %+v, want the exact answer to win over the fallback", res)
	}
	// And the fallback-serving node gets repaired with the exact entry.
	if e, ok := stores[0].Get(k); !ok || e.Cfg != exact {
		t.Errorf("fallback-serving node not repaired: %+v ok=%v", e, ok)
	}
}

// TestFleetNeighbors: the fan-out merges neighbour scans across nodes,
// deduplicates replicated contexts keeping the best perf, and re-ranks
// under the shared distance order.
func TestFleetNeighbors(t *testing.T) {
	f, stores := newFleetNodes(t, 2)
	ctx := context.Background()
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}

	// Node 0 holds cap 60; node 1 holds cap 85 plus a better-perf copy
	// of cap 60 (the dedup must keep node 1's).
	stores[0].Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 60, Region: "r"},
		arcs.ConfigValues{Threads: 8}, 2.0)
	stores[1].Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 60, Region: "r"},
		arcs.ConfigValues{Threads: 16}, 1.0)
	stores[1].Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 85, Region: "r"},
		arcs.ConfigValues{Threads: 4}, 3.0)

	ns, err := f.Neighbors(ctx, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 {
		t.Fatalf("got %d neighbours, want 2 (cap-60 deduplicated): %+v", len(ns), ns)
	}
	if ns[0].Key.CapW != 60 || ns[0].Cfg.Threads != 16 {
		t.Errorf("first neighbour = %+v, want node 1's best-perf cap-60 copy", ns[0])
	}
	if ns[1].Key.CapW != 85 {
		t.Errorf("second neighbour = %+v, want cap 85", ns[1])
	}
	if got, err := f.Neighbors(ctx, k, 0); err != nil || got != nil {
		t.Errorf("max<=0 = %v, %v; want nil, nil", got, err)
	}
}
