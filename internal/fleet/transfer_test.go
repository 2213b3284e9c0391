package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/store"
)

// instantSleep replaces the bootstrap backoff waiter so retry tests run
// in microseconds.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// seedCluster ingests n keys through their owners and returns them.
func seedCluster(t *testing.T, c *cluster, n int) []arcs.HistoryKey {
	t.Helper()
	ctx := context.Background()
	keys := make([]arcs.HistoryKey, 0, n)
	for i := 0; i < n; i++ {
		k := testKey(fmt.Sprintf("boot%d", i), float64(40+10*(i%3)))
		owner := c.ownersOf(k)[0]
		if got := c.fleets[owner].Ingest(ctx, []codec.Report{{Key: k, Cfg: arcs.ConfigValues{Threads: 1 + i%8}, Perf: 1 + float64(i%5)}}, false); got != 1 {
			t.Fatalf("seed ingest %d accepted %d", i, got)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestBootstrapPullsOwnedRanges: a joining empty node streams exactly
// the ranges it owns under the post-join ring — byte-identical to the
// serving owners' copies, and nothing it does not own.
func TestBootstrapPullsOwnedRanges(t *testing.T) {
	c := newCluster(t, 3, 2)
	keys := seedCluster(t, c, 60)

	nf := c.addNode(t, "node3", "node0", 2)
	stats, err := nf.Bootstrap(context.Background(), BootstrapOptions{Sleep: instantSleep})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if stats.Merged == 0 || stats.Entries == 0 {
		t.Fatalf("bootstrap moved nothing: %+v", stats)
	}
	if nf.Stats().TransferredIn != uint64(stats.Merged) {
		t.Fatalf("TransferredIn = %d, want %d", nf.Stats().TransferredIn, stats.Merged)
	}

	owned := 0
	for _, k := range keys {
		if !ownsKey(nf, k.String()) {
			continue
		}
		owned++
		got, ok := c.stores["node3"].Get(k)
		if !ok {
			t.Fatalf("joiner missing owned key %v", k)
		}
		// Byte-identical to the copy on a pre-existing owner.
		for _, o := range c.ownersOf(k) {
			if o == "node3" {
				continue
			}
			want, wok := c.stores[o].Get(k)
			if !wok || got != want {
				t.Fatalf("key %v: joiner has %+v, owner %s has %+v (ok=%v)", k, got, o, want, wok)
			}
		}
	}
	if owned == 0 {
		t.Fatal("setup: the joiner owns none of the seeded keys")
	}
	// RangeEntries only serves owned ranges, so the joiner's store must
	// hold nothing it does not own.
	for _, e := range c.stores["node3"].Entries() {
		if !ownsKey(nf, e.Key.String()) {
			t.Fatalf("joiner bootstrapped unowned key %v", e.Key)
		}
	}
}

// TestBootstrapStaleEpochAdoptsAndRetries: a bootstrap started under a
// stale membership epoch is rejected by peers with their current list;
// the joiner adopts it and the retry pulls under the corrected ring.
func TestBootstrapStaleEpochAdoptsAndRetries(t *testing.T) {
	c := newCluster(t, 3, 2)
	seedCluster(t, c, 40)
	ctx := context.Background()

	// The fleet is told node3 joined (epoch 2 everywhere) ...
	m, err := c.fleets["node0"].ProposeJoin(ctx, "node3")
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 {
		t.Fatalf("setup: join landed at epoch %d", m.Epoch)
	}
	// ... but node3 itself comes up believing an older epoch, as a
	// replacement restarted from a stale config would.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	nf, err := New(Config{
		Self: "node3", Nodes: m.Nodes, Epoch: 1, Replicas: 2,
		Store: st, NewPeer: c.newPeer, Seed: 104,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.names = append(c.names, "node3")
	c.stores["node3"] = st
	c.fleets["node3"] = nf

	stats, err := nf.Bootstrap(ctx, BootstrapOptions{Sleep: instantSleep})
	if err != nil {
		t.Fatalf("Bootstrap under stale epoch: %v", err)
	}
	if stats.Retries == 0 {
		t.Fatal("stale-epoch rejection never triggered a retry")
	}
	if nf.View().Epoch() != 2 {
		t.Fatalf("joiner epoch %d after bootstrap, want adopted 2", nf.View().Epoch())
	}
	if stats.Merged == 0 {
		t.Fatalf("corrected retry merged nothing: %+v", stats)
	}
}

// TestBootstrapTornFrameCrashTorture: transfers that die mid-frame
// (simulated CRC failures) merge nothing — retries re-pull whole
// shards, and even a permanently failing peer leaves only whole,
// CRC-valid entries in the joiner's store; anti-entropy backfills the
// rest once the peer recovers.
func TestBootstrapTornFrameCrashTorture(t *testing.T) {
	c := newCluster(t, 3, 2)
	keys := seedCluster(t, c, 60)
	ctx := context.Background()

	nf := c.addNode(t, "node3", "node0", 2)
	// node0's answers fail the checksum forever (a daemon dying mid-
	// stream on every attempt); node1/node2 tear the first two frames.
	c.setTorn("node0", 1<<30)
	c.setTorn("node1", 2)
	c.setTorn("node2", 2)

	stats, err := nf.Bootstrap(ctx, BootstrapOptions{Sleep: instantSleep})
	if err == nil || stats.Failures == 0 {
		t.Fatalf("permanently torn peer did not surface failures: %+v err=%v", stats, err)
	}
	if stats.Retries == 0 {
		t.Fatal("transient torn frames were never retried")
	}
	// The invariant under torture: whatever did land is a whole entry,
	// byte-identical to the serving owner's copy. No partial merges.
	for _, e := range c.stores["node3"].Entries() {
		if !ownsKey(nf, e.Key.String()) {
			t.Fatalf("torn bootstrap left unowned key %v", e.Key)
		}
		found := false
		for _, name := range []string{"node0", "node1", "node2"} {
			if src, ok := c.stores[name].Get(e.Key); ok && src == e {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("joiner holds entry %+v matching no source copy (torn merge?)", e)
		}
	}

	// Peer recovers; anti-entropy converges the joiner without restart.
	c.setTorn("node0", 0)
	c.tickAll(ctx, 3)
	for _, k := range keys {
		if !ownsKey(nf, k.String()) {
			continue
		}
		if _, ok := c.stores["node3"].Get(k); !ok {
			t.Fatalf("anti-entropy did not backfill owned key %v after torn bootstrap", k)
		}
	}
	c.assertConverged(t)
}

// TestDrainPushesToNewOwners: a clean leave drains every held entry to
// its owners under the post-departure ring before the node goes, so
// replication never dips.
func TestDrainPushesToNewOwners(t *testing.T) {
	c := newCluster(t, 3, 2)
	seedCluster(t, c, 60)
	ctx := context.Background()

	leaving := c.fleets["node2"]
	held := c.stores["node2"].Entries()
	if len(held) == 0 {
		t.Fatal("setup: leaving node holds nothing")
	}
	if _, err := leaving.ProposeLeave(ctx, "node2"); err != nil {
		t.Fatal(err)
	}
	if ownsKey(leaving, testKey("post", 60).String()) {
		t.Fatal("departed node still claims ownership before drain")
	}
	pushed, err := leaving.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if pushed == 0 {
		t.Fatal("drain pushed nothing")
	}
	if leaving.Stats().Drained != uint64(pushed) {
		t.Fatalf("Drained stat %d, want %d", leaving.Stats().Drained, pushed)
	}

	// Every entry the departing node held is now byte-identical on every
	// owner under the shrunk ring.
	for _, e := range held {
		for _, o := range c.ownersOf(e.Key) {
			if o == "node2" {
				t.Fatalf("departed node still an owner of %v", e.Key)
			}
			got, ok := c.stores[o].Get(e.Key)
			if !ok || got != e {
				t.Fatalf("key %v: new owner %s has %+v (ok=%v), want drained %+v", e.Key, o, got, ok, e)
			}
		}
	}
}

// TestHandoffDropRepairedByAntiEntropy is the overflow observability
// contract: a hint dropped on queue overflow is counted, and the entry
// it stood for still reaches the co-owner via the anti-entropy sweep.
func TestHandoffDropRepairedByAntiEntropy(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A separate "node0" whose hint queues hold a single entry each, so
	// replicating more than one owned key to a down co-owner must drop.
	fl, err := New(Config{
		Self: "node0", Nodes: c.names, Replicas: 2, Store: st,
		NewPeer: c.newPeer, HandoffMax: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.down["node1"] = true
	c.down["node2"] = true

	var owned []arcs.HistoryKey
	for i := 0; len(owned) < 6; i++ {
		k := testKey(fmt.Sprintf("drop%d", i), 60)
		if ownsKey(fl, k.String()) {
			owned = append(owned, k)
			fl.Ingest(ctx, []codec.Report{{Key: k, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 2}}, false)
		}
	}
	s := fl.Stats()
	if s.HandoffDropped == 0 {
		t.Fatalf("overflow did not drop: %+v", s)
	}

	c.down["node1"] = false
	c.down["node2"] = false
	fl.Tick(ctx) // drains the surviving hint, sweeps the dropped ones
	if fl.Stats().Repairs == 0 {
		t.Fatal("sweep repaired nothing despite dropped hints")
	}
	for _, k := range owned {
		want, _ := st.Get(k)
		for _, o := range fl.View().Owners(k.String(), nil) {
			if o == "node0" {
				continue
			}
			got, ok := c.stores[o].Get(k)
			if !ok || got != want {
				t.Fatalf("dropped entry %v not repaired on %s: %+v ok=%v", k, o, got, ok)
			}
		}
	}
}

// BenchmarkRingRebuild measures the membership-change hot cost: building
// a fresh placement ring for a fleet-sized member list. Gated by the CI
// perf baseline so a join/leave never becomes accidentally quadratic.
func BenchmarkRingRebuild(b *testing.B) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://node%02d:1809", i)
	}
	var stack [1]string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewRing(nodes, 0)
		if err != nil {
			b.Fatal(err)
		}
		if r.Owners("SP|B|60|bench", 1, stack[:0])[0] == "" {
			b.Fatal("no primary")
		}
	}
}
