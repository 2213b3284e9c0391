package fleet

import (
	"context"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
)

func TestMembershipSupersedes(t *testing.T) {
	ab := codec.MemberList{Epoch: 2, Nodes: []string{"a", "b"}}
	cases := []struct {
		name string
		a, b codec.MemberList
		want bool
	}{
		{"higher epoch wins", codec.MemberList{Epoch: 3, Nodes: []string{"x"}}, ab, true},
		{"lower epoch loses", codec.MemberList{Epoch: 1, Nodes: []string{"x"}}, ab, false},
		{"equal epoch equal nodes is not newer", codec.MemberList{Epoch: 2, Nodes: []string{"b", "a"}}, ab, false},
		{"equal epoch ties break lexically", codec.MemberList{Epoch: 2, Nodes: []string{"a", "c"}}, ab, true},
		{"equal epoch lexical loser", ab, codec.MemberList{Epoch: 2, Nodes: []string{"a", "c"}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MembershipSupersedes(tc.a, tc.b); got != tc.want {
				t.Fatalf("MembershipSupersedes(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestApplyMembershipSwapsView: adopting a higher epoch rebuilds the
// ring and refuses to move backwards.
func TestApplyMembershipSwapsView(t *testing.T) {
	c := newCluster(t, 3, 2)
	fl := c.fleets["node0"]
	if fl.View().Epoch() != 1 {
		t.Fatalf("initial epoch %d, want 1", fl.View().Epoch())
	}

	// Write a key replicated to a down node2, then adopt a membership
	// without node2.
	c.down["node2"] = true
	k := testKey("apply", 60)
	var owned arcs.HistoryKey
	for i := 0; ; i++ {
		k = testKey(testKeyName(i), 60)
		owners := fl.View().Owners(k.String(), nil)
		if owners[0] == "node0" && contains(owners, "node2") {
			owned = k
			break
		}
	}
	fl.Ingest(context.Background(), []codec.Report{{Key: owned, Cfg: arcs.ConfigValues{Threads: 2}, Perf: 1}}, false)

	applied, cur := fl.ApplyMembership(codec.MemberList{Epoch: 5, Nodes: []string{"node0", "node1"}})
	if !applied || cur.Epoch != 5 {
		t.Fatalf("ApplyMembership = (%v, %+v), want applied at epoch 5", applied, cur)
	}
	if fl.View().Has("node2") {
		t.Fatal("removed node still a member")
	}

	// A stale epoch must not regress the view.
	if applied, _ := fl.ApplyMembership(codec.MemberList{Epoch: 3, Nodes: c.names}); applied {
		t.Fatal("stale epoch applied")
	}
	if fl.View().Epoch() != 5 {
		t.Fatalf("epoch regressed to %d", fl.View().Epoch())
	}
}

func testKeyName(i int) string { return "apply" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestProposeJoinPropagates: a join proposed at one member reaches
// every member at the same epoch, and routing includes the newcomer.
func TestProposeJoinPropagates(t *testing.T) {
	c := newCluster(t, 3, 2)
	nf := c.addNode(t, "node3", "node0", 2)
	for _, name := range c.names {
		fl := c.fleets[name]
		if fl.View().Epoch() != 2 {
			t.Fatalf("%s at epoch %d after join, want 2", name, fl.View().Epoch())
		}
		if !fl.View().Has("node3") {
			t.Fatalf("%s does not see node3 as a member", name)
		}
	}
	if !nf.View().Has("node3") {
		t.Fatal("joiner does not see itself")
	}
	// The ring must hand node3 some primaries.
	owned := 0
	for i := 0; i < 200; i++ {
		if c.fleets["node3"].View().Owners(testKey(testKeyName(i), 60).String(), nil)[0] == "node3" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("joined node owns no primaries")
	}
}

// TestProposeLeavePropagates: a leave shrinks every member's view and
// the departed node stops owning keys.
func TestProposeLeavePropagates(t *testing.T) {
	c := newCluster(t, 3, 2)
	if _, err := c.fleets["node1"].ProposeLeave(context.Background(), "node2"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node0", "node1"} {
		fl := c.fleets[name]
		if fl.View().Has("node2") {
			t.Fatalf("%s still lists node2", name)
		}
		if fl.View().Epoch() != 2 {
			t.Fatalf("%s at epoch %d, want 2", name, fl.View().Epoch())
		}
	}
	// The departed node adopted the membership that excludes it: it
	// owns nothing now and must not accept unforwarded reports as owner.
	if ownsKey(c.fleets["node2"], testKey("post-leave", 60).String()) {
		t.Fatal("departed node still claims ownership")
	}
}

// TestProposeLeaveLastMember: the final member cannot be removed — an
// empty fleet has no owner for anything.
func TestProposeLeaveLastMember(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	if _, err := c.fleets["node0"].ProposeLeave(ctx, "node1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.fleets["node0"].ProposeLeave(ctx, "node2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.fleets["node0"].ProposeLeave(ctx, "node0"); err == nil {
		t.Fatal("removing the last member succeeded")
	}
}

// TestConcurrentJoinConflictResolves: two joins proposed at the same
// epoch from different coordinators must converge — the epoch-race
// loser adopts the winner and re-proposes at the next epoch, so both
// newcomers end up in the final membership on every node.
func TestConcurrentJoinConflictResolves(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()

	// Simulate the race deterministically: both coordinators build
	// their proposal from epoch 1, then broadcast in turn.
	mA := codec.MemberList{Epoch: 2, Nodes: append(append([]string{}, c.names...), "nodeA")}
	mB := codec.MemberList{Epoch: 2, Nodes: append(append([]string{}, c.names...), "nodeB")}
	appliedA, _ := c.fleets["node0"].ApplyMembership(mA)
	appliedB, curB := c.fleets["node1"].ApplyMembership(mB)
	if !appliedA || !appliedB {
		t.Fatal("setup: epoch-2 proposals rejected")
	}
	_ = curB

	// node0 now pushes its epoch-2 list to node1: exactly one of the two
	// equal-epoch lists must win on both, by the deterministic tie-break.
	win := mA
	if MembershipSupersedes(mB, mA) {
		win = mB
	}
	c.fleets["node1"].ApplyMembership(mA)
	c.fleets["node0"].ApplyMembership(mB)
	g0, g1 := c.fleets["node0"].View().Membership(), c.fleets["node1"].View().Membership()
	if nodesKey(g0.Nodes) != nodesKey(win.Nodes) || nodesKey(g1.Nodes) != nodesKey(win.Nodes) {
		t.Fatalf("tie-break disagreement: node0=%v node1=%v want %v", g0.Nodes, g1.Nodes, win.Nodes)
	}

	// The loser's coordinator now re-proposes through the full propose
	// loop; the result must contain both newcomers, fleet-wide.
	lost := "nodeA"
	if nodesKey(win.Nodes) == nodesKey(mA.Nodes) {
		lost = "nodeB"
	}
	final, err := c.fleets["node2"].ProposeJoin(ctx, lost)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(final.Nodes, "nodeA") || !contains(final.Nodes, "nodeB") {
		t.Fatalf("final membership %v missing a racer", final.Nodes)
	}
	for _, name := range c.names {
		if got := c.fleets[name].View().Membership(); nodesKey(got.Nodes) != nodesKey(final.Nodes) {
			t.Fatalf("%s converged to %v, want %v", name, got.Nodes, final.Nodes)
		}
	}
}

// TestHeartbeatAdoptsNewerEpoch: a member that missed a membership
// broadcast catches up from an ordinary heartbeat answer.
func TestHeartbeatAdoptsNewerEpoch(t *testing.T) {
	c := newCluster(t, 3, 2)
	ctx := context.Background()
	// node2 misses the join (down during broadcast).
	c.down["node2"] = true
	c.addNode(t, "node3", "node0", 2)
	if c.fleets["node2"].View().Epoch() != 1 {
		t.Fatal("setup: node2 should have missed the epoch bump")
	}
	c.down["node2"] = false
	c.fleets["node2"].Heartbeat(ctx, at(0))
	if got := c.fleets["node2"].View().Epoch(); got != 2 {
		t.Fatalf("node2 epoch %d after heartbeat, want 2", got)
	}
	if !c.fleets["node2"].View().Has("node3") {
		t.Fatal("node2 still does not know node3")
	}
}
