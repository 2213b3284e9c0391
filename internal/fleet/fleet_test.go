package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/store"
)

func testKey(region string, capW float64) arcs.HistoryKey {
	return arcs.HistoryKey{App: "SP", Workload: "B", CapW: capW, Region: region}
}

// --- ring ------------------------------------------------------------

// TestRingDeterministicAcrossOrder: every member must compute identical
// placements whatever order its -peers flag listed the membership in.
func TestRingDeterministicAcrossOrder(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := testKey(fmt.Sprintf("r%d", i), 60).String()
		if got, want := b.Owners(k, 2, nil), a.Owners(k, 2, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q: owners %v vs %v across member orderings", k, got, want)
		}
	}
}

// TestRingOwnersDistinct: the owner list never repeats a node and is
// clamped to the member count.
func TestRingOwnersDistinct(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		owners := r.Owners(k, 5, nil)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners, want all 3 (clamped)", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q in %v", k, o, owners)
			}
			seen[o] = true
		}
		if primary := r.Owners(k, 1, nil)[0]; primary != owners[0] {
			t.Fatalf("key %q: one-owner walk %q != Owners[0] %q", k, primary, owners[0])
		}
	}
}

// TestRingBalanceAndShare: primaries spread roughly evenly over three
// nodes and the OwnedShare gauges sum to 1.
func TestRingBalanceAndShare(t *testing.T) {
	nodes := []string{"http://a:1809", "http://b:1809", "http://c:1809"}
	r, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owners(fmt.Sprintf("app%d|w|%d|region%d", i%7, 40+i%5, i), 1, nil)[0]]++
	}
	for _, node := range nodes {
		frac := float64(counts[node]) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("node %q owns %.0f%% of primaries; want roughly a third", node, 100*frac)
		}
	}
	var total float64
	for _, node := range nodes {
		s := r.OwnedShare(node)
		if s <= 0 || s >= 1 {
			t.Errorf("OwnedShare(%q) = %v, want in (0,1)", node, s)
		}
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if r.OwnedShare("not-a-member") != 0 {
		t.Error("non-member owns a share")
	}

	single, err := NewRing([]string{"only"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := single.OwnedShare("only"); s < 0.999 {
		t.Errorf("single node OwnedShare = %v, want ~1", s)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate node name accepted")
	}
}

// --- cluster harness -------------------------------------------------

var errDown = errors.New("peer down")

// loopPeer wires a Fleet's peer RPCs straight into another in-process
// Fleet — the transport-free cluster the unit tests run on. A name
// with no registered fleet behaves as down, which is exactly what a
// just-proposed joiner looks like before its daemon is up.
type loopPeer struct {
	c    *cluster
	name string
}

// target returns the peer's fleet, or nil when the node is down or not
// (yet) running.
func (p loopPeer) target() *Fleet {
	if p.c.down[p.name] {
		return nil
	}
	return p.c.fleets[p.name]
}

func (p loopPeer) MergeEntries(ctx context.Context, entries []store.Entry) error {
	fl := p.target()
	if fl == nil {
		return errDown
	}
	for _, e := range entries {
		fl.st.Merge(e)
	}
	return nil
}

func (p loopPeer) ForwardReports(ctx context.Context, reports []codec.Report) error {
	fl := p.target()
	if fl == nil {
		return errDown
	}
	fl.Ingest(ctx, reports, true)
	return nil
}

func (p loopPeer) ShardDigest(ctx context.Context, shard int) (codec.Digest, error) {
	if p.target() == nil {
		return codec.Digest{}, errDown
	}
	return BuildDigest(p.c.stores[p.name], shard), nil
}

func (p loopPeer) Ping(ctx context.Context) (codec.MemberList, error) {
	fl := p.target()
	if fl == nil {
		return codec.MemberList{}, errDown
	}
	return fl.View().Membership(), nil
}

func (p loopPeer) PushMembership(ctx context.Context, m codec.MemberList) (codec.MemberList, error) {
	fl := p.target()
	if fl == nil {
		return codec.MemberList{}, errDown
	}
	fl.ApplyMembership(m)
	return fl.View().Membership(), nil
}

func (p loopPeer) TransferRange(ctx context.Context, shard int, forNode string, epoch uint64) ([]store.Entry, error) {
	fl := p.target()
	if fl == nil {
		return nil, errDown
	}
	if p.c.tornHit(p.name) {
		// Simulates a CRC-failed (torn) transfer frame: the decode layer
		// rejects the whole response, so the caller sees an error and no
		// entries — never a partial shard. The counter makes the failure
		// transient (killing a node mid-transfer, then retrying).
		return nil, errors.New("transfer frame failed checksum")
	}
	v := fl.View()
	if v.Epoch() != epoch {
		return nil, &EpochMismatchError{Current: v.Membership()}
	}
	return fl.RangeEntries(v, shard, forNode), nil
}

type cluster struct {
	names  []string
	dirs   map[string]string // store directories, for restarts
	stores map[string]*store.Store
	fleets map[string]*Fleet
	down   map[string]bool

	mu   sync.Mutex
	torn map[string]int // guarded by mu (bootstrap pulls ranges concurrently); remaining TransferRange answers that fail the frame checksum
}

// setTorn arms (or, with n=0, disarms) torn-frame answers for a peer.
func (c *cluster) setTorn(name string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		delete(c.torn, name)
		return
	}
	c.torn[name] = n
}

// tornHit consumes one torn-frame answer for the peer, if any remain.
func (c *cluster) tornHit(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.torn[name] > 0 {
		c.torn[name]--
		return true
	}
	return false
}

func newCluster(t *testing.T, n, replicas int) *cluster {
	t.Helper()
	c := &cluster{
		dirs:   map[string]string{},
		stores: map[string]*store.Store{},
		fleets: map[string]*Fleet{},
		down:   map[string]bool{},
		torn:   map[string]int{},
	}
	for i := 0; i < n; i++ {
		c.names = append(c.names, fmt.Sprintf("node%d", i))
	}
	for _, name := range c.names {
		c.dirs[name] = t.TempDir()
		st, err := store.Open(c.dirs[name], store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		c.stores[name] = st
	}
	for i, name := range c.names {
		fl, err := New(Config{
			Self: name, Nodes: c.names, Replicas: replicas,
			Store: c.stores[name], NewPeer: c.newPeer, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.fleets[name] = fl
	}
	return c
}

// restart closes a node's store and reopens it, and a fresh fleet on
// top of it, from the same directory and membership: whatever the node
// held only in memory is gone, whatever its WAL holds survives.
func (c *cluster) restart(t *testing.T, name string, replicas int) {
	t.Helper()
	m := c.fleets[name].View().Membership()
	if err := c.stores[name].Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(c.dirs[name], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fl, err := New(Config{
		Self: name, Nodes: m.Nodes, Epoch: m.Epoch, Replicas: replicas,
		Store: st, NewPeer: c.newPeer, Seed: int64(100 + slices.Index(c.names, name)),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.stores[name] = st
	c.fleets[name] = fl
}

// newPeer is the cluster's fleet.Config.NewPeer: loopPeers are cheap
// stateless handles, so members that join after construction resolve
// the same way as the initial ones.
func (c *cluster) newPeer(name string) Peer { return loopPeer{c: c, name: name} }

// addNode spins up one more store+fleet joined through via, mirroring
// `arcsd -join`: propose through an existing member, adopt the
// resulting membership, register in the cluster.
func (c *cluster) addNode(t *testing.T, name, via string, replicas int) *Fleet {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	m, err := c.fleets[via].ProposeJoin(context.Background(), name)
	if err != nil {
		t.Fatalf("ProposeJoin(%s): %v", name, err)
	}
	fl, err := New(Config{
		Self: name, Nodes: m.Nodes, Epoch: m.Epoch, Replicas: replicas,
		Store: st, NewPeer: c.newPeer, Seed: int64(100 + len(c.names)),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.names = append(c.names, name)
	c.stores[name] = st
	c.fleets[name] = fl
	return fl
}

// ownersOf returns (primary, all owners) for a key.
func (c *cluster) ownersOf(k arcs.HistoryKey) []string {
	return c.fleets[c.names[0]].View().Owners(k.String(), nil)
}

// ownsKey reports whether fl's node owns the canonical key under its
// current view.
func ownsKey(fl *Fleet, ck string) bool {
	return slices.Contains(fl.View().Owners(ck, nil), fl.Self())
}

// nonOwner returns a node that does not own k.
func (c *cluster) nonOwner(t *testing.T, k arcs.HistoryKey) string {
	t.Helper()
	owners := c.ownersOf(k)
	for _, n := range c.names {
		owned := false
		for _, o := range owners {
			if o == n {
				owned = true
			}
		}
		if !owned {
			return n
		}
	}
	t.Fatalf("every node owns %v", k)
	return ""
}

// tickAll runs maintenance rounds on every node.
func (c *cluster) tickAll(ctx context.Context, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, name := range c.names {
			c.fleets[name].Tick(ctx)
		}
	}
}

// assertConverged checks every key is byte-identical on every owner and
// absent divergence anywhere.
func (c *cluster) assertConverged(t *testing.T) {
	t.Helper()
	for _, name := range c.names {
		for _, e := range c.stores[name].Entries() {
			for _, o := range c.ownersOf(e.Key) {
				oe, ok := c.stores[o].Get(e.Key)
				if !ok {
					t.Fatalf("owner %s missing key %v (held by %s)", o, e.Key, name)
				}
				we, _ := c.stores[c.ownersOf(e.Key)[0]].Get(e.Key)
				if oe != we {
					t.Fatalf("key %v diverged: %s has %+v, primary has %+v", e.Key, o, oe, we)
				}
			}
		}
	}
}

// --- fleet behavior --------------------------------------------------

// TestIngestReplicatesToCoOwners: a report ingested at an owner lands
// on every owner with the identical version.
func TestIngestReplicatesToCoOwners(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("repl", 60)
	owners := c.ownersOf(k)
	r := codec.Report{Key: k, Cfg: arcs.ConfigValues{Threads: 8}, Perf: 2.0}
	if got := c.fleets[owners[0]].Ingest(ctx, []codec.Report{r}, false); got != 1 {
		t.Fatalf("Ingest accepted %d, want 1", got)
	}
	prim, _ := c.stores[owners[0]].Get(k)
	rep, ok := c.stores[owners[1]].Get(k)
	if !ok || rep != prim {
		t.Fatalf("replica holds %+v (ok=%v), primary %+v", rep, ok, prim)
	}
	if c.fleets[owners[0]].Stats().Replicated == 0 {
		t.Error("Replicated counter did not move")
	}
}

// TestIngestForwardsUnowned: a report ingested at a non-owner is
// forwarded; the non-owner stores nothing, the owners everything.
func TestIngestForwardsUnowned(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("fwd", 60)
	stray := c.nonOwner(t, k)
	r := codec.Report{Key: k, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 3.0}
	if got := c.fleets[stray].Ingest(ctx, []codec.Report{r}, false); got != 1 {
		t.Fatalf("Ingest accepted %d, want 1", got)
	}
	if _, ok := c.stores[stray].Get(k); ok {
		t.Error("non-owner kept a forwarded report")
	}
	for _, o := range c.ownersOf(k) {
		if _, ok := c.stores[o].Get(k); !ok {
			t.Fatalf("owner %s missing forwarded report", o)
		}
	}
	if c.fleets[stray].Stats().Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", c.fleets[stray].Stats().Forwards)
	}
}

// TestHandoffQueuesAndDrains: replication to a down co-owner fails
// without blocking the ack; when the peer recovers, one Tick hands the
// missed write off to it from the owner's store and the replicas
// converge. Two updates to one key while the peer was away cost one
// push: the sweep sends the key's current entry, not its history.
func TestHandoffQueuesAndDrains(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("handoff", 60)
	owners := c.ownersOf(k)
	c.down[owners[1]] = true
	if got := c.fleets[owners[0]].Ingest(ctx, []codec.Report{{Key: k, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 5.0}}, false); got != 1 {
		t.Fatalf("Ingest accepted %d with a co-owner down, want 1", got)
	}
	c.fleets[owners[0]].Ingest(ctx, []codec.Report{{Key: k, Cfg: arcs.ConfigValues{Threads: 8}, Perf: 1.0}}, false)
	if _, ok := c.stores[owners[1]].Get(k); ok {
		t.Fatal("down peer somehow has the entry")
	}
	c.down[owners[1]] = false
	c.fleets[owners[0]].Tick(ctx)
	if got := c.fleets[owners[0]].Stats().Repairs; got != 1 {
		t.Fatalf("Repairs = %d after the peer returned, want 1 (two updates to one key push once)", got)
	}
	prim, _ := c.stores[owners[0]].Get(k)
	rep, ok := c.stores[owners[1]].Get(k)
	if !ok || rep != prim {
		t.Fatalf("after Tick replica holds %+v (ok=%v), want %+v", rep, ok, prim)
	}
}

// TestSweepRepairsAcrossOwnerRestart: writes a co-owner missed while
// it was down reach it through the anti-entropy sweep alone, even when
// the owner restarted in between (nothing in memory survives; the WAL
// does). One Tick on the owner converges every missed key, including
// one updated twice while the co-owner was away.
func TestSweepRepairsAcrossOwnerRestart(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	owner, co := "node0", "node1"
	var keys []arcs.HistoryKey
	for i := 0; len(keys) < 6; i++ {
		k := testKey(fmt.Sprintf("restart%d", i), 60)
		if owners := c.ownersOf(k); slices.Contains(owners, owner) && slices.Contains(owners, co) {
			keys = append(keys, k)
		}
	}
	c.down[co] = true
	for _, k := range keys {
		c.fleets[owner].Ingest(ctx, []codec.Report{{Key: k, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 5.0}}, false)
	}
	c.fleets[owner].Ingest(ctx, []codec.Report{{Key: keys[0], Cfg: arcs.ConfigValues{Threads: 8}, Perf: 1.0}}, false)
	for _, k := range keys {
		if _, ok := c.stores[co].Get(k); ok {
			t.Fatalf("down peer somehow has %v", k)
		}
	}

	c.restart(t, owner, 2)
	c.down[co] = false
	c.fleets[owner].Tick(ctx)
	if got := c.fleets[owner].Stats().Repairs; got != uint64(len(keys)) {
		t.Errorf("Repairs = %d, want %d (one push per missed key)", got, len(keys))
	}
	for _, k := range keys {
		want, ok := c.stores[owner].Get(k)
		if !ok {
			t.Fatalf("owner lost %v across the restart", k)
		}
		if got, ok := c.stores[co].Get(k); !ok || got != want {
			t.Fatalf("after one Tick %s holds %+v (ok=%v) for %v, want %+v", co, got, ok, k, want)
		}
	}
	//arcslint:ignore floatcmp exact value round-trips untouched
	if e, _ := c.stores[co].Get(keys[0]); e.Perf != 1.0 {
		t.Fatalf("co-owner holds perf %v for the twice-updated key, want the latest 1.0", e.Perf)
	}
	c.assertConverged(t)
}

// TestFallbackWhenAllOwnersDown: a non-owner whose forwards all fail
// accepts the report locally (the ack must mean something) and later
// re-injects it at the recovered owner, which authors its own version.
func TestFallbackWhenAllOwnersDown(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("outage", 60)
	stray := c.nonOwner(t, k)
	owners := c.ownersOf(k)
	for _, o := range owners {
		c.down[o] = true
	}
	r := codec.Report{Key: k, Cfg: arcs.ConfigValues{Threads: 16}, Perf: 1.5}
	if got := c.fleets[stray].Ingest(ctx, []codec.Report{r}, false); got != 1 {
		t.Fatalf("Ingest accepted %d, want 1", got)
	}
	if _, ok := c.stores[stray].Get(k); !ok {
		t.Fatal("fallback did not store locally")
	}
	if c.fleets[stray].Stats().Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", c.fleets[stray].Stats().Fallbacks)
	}
	for _, o := range owners {
		c.down[o] = false
	}
	c.tickAll(ctx, 2)
	for _, o := range owners {
		e, ok := c.stores[o].Get(k)
		if !ok {
			t.Fatalf("owner %s missing re-injected report", o)
		}
		//arcslint:ignore floatcmp exact value round-trips untouched
		if e.Perf != r.Perf || e.Cfg != r.Cfg {
			t.Fatalf("owner %s re-injected entry %+v, want perf %v cfg %+v", o, e, r.Perf, r.Cfg)
		}
	}
	c.assertConverged(t)
}

// TestSweepRepairsDivergence: entries written behind the fleet's back
// (directly into one owner's store, as a restart-from-stale-WAL would)
// propagate to the other owners by anti-entropy alone.
func TestSweepRepairsDivergence(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		k := testKey(fmt.Sprintf("div%d", i), float64(40+10*(i%3)))
		owners := c.ownersOf(k)
		victim := owners[r.Intn(len(owners))]
		c.stores[victim].Save(k, arcs.ConfigValues{Threads: 1 + i%8}, 1+float64(i%5))
	}
	c.tickAll(ctx, 2)
	c.assertConverged(t)
	var repairs uint64
	for _, name := range c.names {
		repairs += c.fleets[name].Stats().Repairs
	}
	if repairs == 0 {
		t.Error("anti-entropy repaired nothing despite forced divergence")
	}
}

// TestSweepConvergesEqualVersionDivergence: two owners that each
// authored version N for the same key (a split-brain write) converge to
// the one Supersedes picks, on both nodes.
func TestSweepConvergesEqualVersionDivergence(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("split", 60)
	owners := c.ownersOf(k)
	c.stores[owners[0]].Save(k, arcs.ConfigValues{Threads: 8}, 2.0) // version 1
	c.stores[owners[1]].Save(k, arcs.ConfigValues{Threads: 4}, 3.0) // version 1, worse perf
	c.tickAll(ctx, 2)
	a, _ := c.stores[owners[0]].Get(k)
	b, _ := c.stores[owners[1]].Get(k)
	if a != b {
		t.Fatalf("split-brain not reconciled: %+v vs %+v", a, b)
	}
	//arcslint:ignore floatcmp exact winner check
	if a.Perf != 2.0 {
		t.Fatalf("winner perf %v, want the better 2.0", a.Perf)
	}
}

// TestSweepKeepsBestAtLowerVersion: an owner that missed updates
// authors the better result at the lower version. Anti-entropy must
// converge both owners on that acknowledged best, not on the other
// owner's worse entry at the higher version.
func TestSweepKeepsBestAtLowerVersion(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("lagging", 70)
	owners := c.ownersOf(k)
	ahead, lagging := c.stores[owners[0]], c.stores[owners[1]]
	ahead.Save(k, arcs.ConfigValues{Threads: 4}, 2.0) // version 1
	e, _ := ahead.Get(k)
	lagging.Merge(e)
	ahead.Save(k, arcs.ConfigValues{Threads: 8}, 1.9)
	ahead.Save(k, arcs.ConfigValues{Threads: 16}, 1.67)   // version 3
	lagging.Save(k, arcs.ConfigValues{Threads: 32}, 1.38) // version 2, acknowledged
	c.tickAll(ctx, 2)
	want := store.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 32}, Perf: 1.38, Version: 2}
	for _, o := range owners {
		if got, _ := c.stores[o].Get(k); got != want {
			t.Errorf("owner %s holds %+v after Tick, want the acknowledged best %+v", o, got, want)
		}
	}
}

// TestIngestForwardedNeverBounces: a forwarded report is applied
// locally even by a non-owner and never re-forwarded.
func TestIngestForwardedNeverBounces(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	k := testKey("bounce", 60)
	stray := c.nonOwner(t, k)
	r := codec.Report{Key: k, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 1.0}
	if got := c.fleets[stray].Ingest(ctx, []codec.Report{r}, true); got != 1 {
		t.Fatalf("forwarded Ingest accepted %d, want 1", got)
	}
	if _, ok := c.stores[stray].Get(k); !ok {
		t.Fatal("forwarded report not applied locally")
	}
	if f := c.fleets[stray].Stats().Forwards; f != 0 {
		t.Fatalf("forwarded report re-forwarded %d times", f)
	}
}

// BenchmarkFleetRoute measures routing on the serving path: the ring's
// owner walk (ring) and a 3-node View's owner walk (view).
// Both must stay allocation-free (append-style into a stack buffer) —
// the CI perf gate enforces 0 allocs/op.
func BenchmarkFleetRoute(b *testing.B) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("region%d", i), float64(40+i%5)).String()
	}
	var stack [8]string
	b.Run("ring", func(b *testing.B) {
		nodes := []string{"http://a:1809", "http://b:1809", "http://c:1809", "http://d:1809", "http://e:1809"}
		r, err := NewRing(nodes, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			owners := r.Owners(keys[i%len(keys)], 3, stack[:0])
			if len(owners) != 3 {
				b.Fatal("bad owner count")
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		nodes := []string{"http://a:1809", "http://b:1809", "http://c:1809"}
		vs, err := NewViews(codec.MemberList{Epoch: 1, Nodes: nodes}, DefaultReplicas, func(string) (*int, error) { return new(int), nil })
		if err != nil {
			b.Fatal(err)
		}
		v := vs.View()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			owners := v.Owners(keys[i%len(keys)], stack[:0])
			if len(owners) != DefaultReplicas {
				b.Fatal("bad owner count")
			}
		}
	})
}
