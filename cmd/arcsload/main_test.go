package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// testNode is one in-process fleet member: a real store, fleet, server,
// and HTTP listener — the arcsd wiring minus the binary — plus an
// anti-entropy ticker, so kill/restart exercises the same machinery the
// daemon runs.
type testNode struct {
	st     *store.Store
	fl     *fleet.Fleet
	hs     *http.Server
	cancel context.CancelFunc // stops the ticker
	done   chan struct{}
}

// testCluster is an N-node fleet sharing one membership list. URLs are
// fixed up front (listeners bound before any node starts) so every
// member — and a restarted one — sees identical membership.
type testCluster struct {
	t     *testing.T
	urls  []string
	dirs  []string
	nodes []*testNode
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{t: t, nodes: make([]*testNode, n)}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		c.urls = append(c.urls, "http://"+ln.Addr().String())
		c.dirs = append(c.dirs, t.TempDir())
	}
	for i := 0; i < n; i++ {
		c.start(i, lns[i])
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			if c.nodes[i] != nil {
				c.kill(i)
			}
		}
	})
	return c
}

// registry hands out one shared client per member, created on demand —
// the cmd/arcsd peerRegistry wiring, which is what lets a join grow the
// member set while a node runs.
type registry struct {
	self string
	mu   sync.Mutex
	m    map[string]*storeclient.Client // guarded by mu
}

func (r *registry) client(name string) *storeclient.Client {
	if name == "" || name == r.self {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.m[name]
	if c == nil {
		c = storeclient.New(name,
			storeclient.WithRetries(0),
			storeclient.WithHTTPClient(&http.Client{Timeout: 2 * time.Second}),
		)
		r.m[name] = c
	}
	return c
}

func (r *registry) peer(name string) fleet.Peer {
	if c := r.client(name); c != nil {
		return c
	}
	return nil
}

// start brings node i up on its fixed address; ln may be nil (restart),
// in which case the address is re-bound.
func (c *testCluster) start(i int, ln net.Listener) {
	c.startMember(i, ln, append([]string(nil), c.urls...), 0)
}

// startMember brings node i up with an explicit membership and epoch —
// the join path hands a joiner the list an existing member admitted it
// into, everyone else starts from the bootstrap list at epoch 0 (which
// fleet.New reads as 1).
func (c *testCluster) startMember(i int, ln net.Listener, nodes []string, epoch uint64) {
	c.t.Helper()
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", strings.TrimPrefix(c.urls[i], "http://"))
		if err != nil {
			c.t.Fatalf("rebind node %d: %v", i, err)
		}
	}
	st, err := store.Open(c.dirs[i], store.Options{})
	if err != nil {
		c.t.Fatal(err)
	}
	reg := &registry{self: c.urls[i], m: make(map[string]*storeclient.Client)}
	fl, err := fleet.New(fleet.Config{
		Self: c.urls[i], Nodes: nodes, Epoch: epoch, Replicas: 2,
		Store: st, NewPeer: reg.peer, Seed: int64(1000 + i), HandoffMax: 4096,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st, Fleet: fl, PeerClient: reg.client})
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				fl.Tick(ctx)
			}
		}
	}()
	c.nodes[i] = &testNode{st: st, fl: fl, hs: hs, cancel: cancel, done: done}
}

// kill stops node i abruptly (listener closed, store closed, ticker
// stopped); its WAL stays on disk for the restart.
func (c *testCluster) kill(i int) {
	c.t.Helper()
	n := c.nodes[i]
	if n == nil {
		return
	}
	n.cancel()
	<-n.done
	_ = n.hs.Close()
	_ = n.st.Close()
	c.nodes[i] = nil
}

// addNode grows the cluster through the live-join path: bind a fresh
// address, have an existing member admit it over /v1/join, start the
// node on the membership the join answered, and stream in its owned
// ranges — the cmd/arcsd -join wiring, in process. Returns the new
// node's index.
func (c *testCluster) addNode(ctx context.Context, via string) int {
	c.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	c.urls = append(c.urls, url)
	c.dirs = append(c.dirs, c.t.TempDir())
	c.nodes = append(c.nodes, nil)
	i := len(c.nodes) - 1
	// The join response waits for the membership broadcast, which
	// includes a push to this joiner's bound-but-not-yet-serving
	// listener (a ~2s peer-client timeout) — so the admit call itself
	// needs more headroom than one peer push, and must not retry (each
	// retry would re-propose).
	admit := storeclient.New(via, storeclient.WithRetries(0),
		storeclient.WithHTTPClient(&http.Client{Timeout: 15 * time.Second}))
	m, err := admit.Join(ctx, url)
	if err != nil {
		c.t.Fatalf("join %s via %s: %v", url, via, err)
	}
	c.startMember(i, ln, m.Nodes, m.Epoch)
	if _, err := c.nodes[i].fl.Bootstrap(ctx, fleet.BootstrapOptions{}); err != nil {
		c.t.Fatalf("bootstrap %s: %v", url, err)
	}
	return i
}

// TestFleetConvergesThroughKillRestart is the fleet acceptance test:
// three nodes, replication factor two, a seeded chaotic load with one
// member killed mid-run and restarted from its WAL. Afterwards the
// cluster must hold every acknowledged best, with byte-identical
// replicas and warm reads agreeing across owners.
func TestFleetConvergesThroughKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet e2e")
	}
	c := newTestCluster(t, 3)
	ctx := context.Background()
	logger := log.New(io.Discard, "", 0)
	cfg := loadCfg{
		peers: strings.Join(c.urls, ","), replicas: 2,
		reports: 300, keys: 32, seed: 42, chaos: 0.05,
		settle: 30 * time.Second, timeout: 2 * time.Second,
	}

	res, err := run(ctx, cfg, logger)
	if err != nil {
		t.Fatalf("load phase 1: %v", err)
	}
	if res.Acked == 0 {
		t.Fatal("phase 1 acked nothing")
	}

	// Kill one member mid-run; the load must keep getting acks from the
	// survivors (failover plus hinted handoff on the server side).
	c.kill(1)
	cfg2 := cfg
	cfg2.seed = 43
	res2, err := run(ctx, cfg2, logger)
	if err != nil {
		t.Fatalf("load phase 2: %v", err)
	}
	if res2.Acked == 0 {
		t.Fatal("phase 2 acked nothing with a node down")
	}
	if res2.Failovers == 0 {
		t.Fatal("phase 2 never failed over despite a dead node")
	}

	// Restart the dead member from its WAL and merge the two phases'
	// acknowledged bests: the cluster owes us every one of them.
	c.start(1, nil)
	for ck, a := range res2.AckedBest {
		if best, ok := res.AckedBest[ck]; !ok || a.Perf < best.Perf {
			res.AckedBest[ck] = a
		}
	}

	if err := verify(ctx, cfg, res, logger); err != nil {
		t.Fatalf("fleet did not converge: %v", err)
	}
}

// TestFleetJoinReplacementConverges is the replacement acceptance test:
// one member dies permanently mid-load (its WAL never comes back), the
// corpse is removed from the membership, and a fresh empty node joins
// in its place — all without restarting a survivor. The fleet must
// still converge on every acknowledged best, byte-identical across the
// post-replacement owners.
func TestFleetJoinReplacementConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet e2e")
	}
	c := newTestCluster(t, 3)
	ctx := context.Background()
	logger := log.New(io.Discard, "", 0)
	cfg := loadCfg{
		peers: strings.Join(c.urls, ","), replicas: 2,
		reports: 300, keys: 32, seed: 44, chaos: 0.05,
		settle: 30 * time.Second, timeout: 2 * time.Second,
	}

	res, err := run(ctx, cfg, logger)
	if err != nil {
		t.Fatalf("load phase 1: %v", err)
	}
	if res.Acked == 0 {
		t.Fatal("phase 1 acked nothing")
	}

	// Kill node 1 for good and keep loading: acks must keep flowing
	// through the survivors.
	dead := c.urls[1]
	c.kill(1)
	cfg2 := cfg
	cfg2.seed = 45
	res2, err := run(ctx, cfg2, logger)
	if err != nil {
		t.Fatalf("load phase 2: %v", err)
	}
	if res2.Acked == 0 {
		t.Fatal("phase 2 acked nothing with a node down")
	}
	if res2.Failovers == 0 {
		t.Fatal("phase 2 never failed over despite a dead node")
	}
	fl0, fl2 := c.nodes[0].fl, c.nodes[2].fl

	// Decommission the corpse (nothing reachable to drain), then admit
	// an empty replacement, which bootstraps its owned ranges.
	admin := storeclient.New(c.urls[0], storeclient.WithHTTPClient(&http.Client{Timeout: 2 * time.Second}))
	if _, err := admin.Leave(ctx, dead); err != nil {
		t.Fatalf("leave %s: %v", dead, err)
	}
	ni := c.addNode(ctx, c.urls[0])

	for ck, a := range res2.AckedBest {
		if best, ok := res.AckedBest[ck]; !ok || a.Perf < best.Perf {
			res.AckedBest[ck] = a
		}
	}
	// verify refreshes its membership from the live fleet, so the stale
	// command-line peer list (dead node in, replacement absent) is fine.
	if err := verify(ctx, cfg, res, logger); err != nil {
		t.Fatalf("fleet did not converge after replacement: %v", err)
	}

	if c.nodes[0].fl != fl0 || c.nodes[2].fl != fl2 {
		t.Fatal("a surviving node was restarted")
	}
	if got := c.nodes[ni].fl.Epoch(); got != 3 {
		t.Errorf("replacement at epoch %d, want 3 (join after leave after bootstrap)", got)
	}
	for _, n := range c.nodes[ni].fl.Ring().Nodes() {
		if n == dead {
			t.Fatalf("dead node %s still in the replacement's membership", dead)
		}
	}
}

// TestFleetDecommissionConverges: a live member retires through its own
// /v1/leave — it proposes the shrunk membership and drains everything
// it holds to the new owners before going away. The remaining fleet
// must hold every acknowledged best with byte-identical replicas,
// without any survivor restarting.
func TestFleetDecommissionConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet e2e")
	}
	c := newTestCluster(t, 3)
	ctx := context.Background()
	logger := log.New(io.Discard, "", 0)
	cfg := loadCfg{
		peers: strings.Join(c.urls, ","), replicas: 2,
		reports: 300, keys: 32, seed: 46, chaos: 0.05,
		settle: 30 * time.Second, timeout: 2 * time.Second,
	}

	res, err := run(ctx, cfg, logger)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res.Acked == 0 {
		t.Fatal("load acked nothing")
	}
	fl0, fl1 := c.nodes[0].fl, c.nodes[1].fl

	// Ask node 2 itself to leave: drain-then-depart.
	departing := c.urls[2]
	admin := storeclient.New(departing, storeclient.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}))
	m, err := admin.Leave(ctx, departing)
	if err != nil {
		t.Fatalf("leave %s: %v", departing, err)
	}
	if m.Epoch != 2 || len(m.Nodes) != 2 {
		t.Fatalf("leave answered epoch %d with %v, want epoch 2 and 2 nodes", m.Epoch, m.Nodes)
	}
	c.kill(2) // the departed node is retired for good

	if err := verify(ctx, cfg, res, logger); err != nil {
		t.Fatalf("fleet did not converge after decommission: %v", err)
	}

	if c.nodes[0].fl != fl0 || c.nodes[1].fl != fl1 {
		t.Fatal("a surviving node was restarted")
	}
	for _, i := range []int{0, 1} {
		for _, n := range c.nodes[i].fl.Ring().Nodes() {
			if n == departing {
				t.Fatalf("node %d still has %s in its membership", i, departing)
			}
		}
	}
}
