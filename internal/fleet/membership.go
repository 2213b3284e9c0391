package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"arcs/internal/codec"
)

// Live membership. The fleet's member list is an epoch-versioned value
// (codec.MemberList): every membership change — an admin join, a leave,
// a replacement — is proposed as a new list at epoch+1 and pushed to
// every member. Epochs totally order memberships fleet-wide:
//
//   - a higher epoch always supersedes a lower one;
//   - two different lists at the same epoch (concurrent proposals that
//     raced) are ordered by their canonical node-list string, so every
//     member picks the same winner with no coordination;
//   - the losing proposer adopts the winner and re-proposes at the next
//     epoch, so raced changes converge within a round per conflict.
//
// A member applies a superseding list atomically through Views.Adopt,
// the one swap point: it builds the new View
// (ring and handles), forgets detector state for removed members, and
// swaps the view in. Requests in flight finish against the view they started
// with; anti-entropy repairs whatever the transition window misplaced.

// maxProposeAttempts bounds the adopt-and-retry loop a proposer runs
// when concurrent proposals race epochs. Each round consumes at least
// one epoch fleet-wide, so contention this deep means the admin is
// issuing conflicting changes faster than the fleet can gossip them.
const maxProposeAttempts = 8

// MembershipSupersedes reports whether member list a beats b under the
// fleet's total order: higher epoch first, canonical node-list string
// as the equal-epoch tie-break. Equal lists supersede nothing.
func MembershipSupersedes(a, b codec.MemberList) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return nodesKey(a.Nodes) > nodesKey(b.Nodes)
}

// nodesKey returns the canonical comparison form of a node list.
func nodesKey(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x00")
}

// EpochMismatchError is returned by transfer RPCs when the serving node
// is on a different membership epoch: the rejection carries the
// server's current member list so the caller can self-correct and
// retry under the right ring.
type EpochMismatchError struct {
	Current codec.MemberList
}

func (e *EpochMismatchError) Error() string {
	return fmt.Sprintf("fleet: membership epoch mismatch (server at epoch %d)", e.Current.Epoch)
}

// ApplyMembership installs m if it supersedes the current member list
// (Views.Adopt). It returns whether m was installed and the list now in
// effect (m on success, the still-current list on rejection — the
// payload a server hands back so a stale caller can self-correct).
func (f *Fleet) ApplyMembership(m codec.MemberList) (bool, codec.MemberList) {
	// An invalid list, or a member this node cannot build a client for,
	// is a rejection like any other: the current list is the answer.
	v, applied, _ := f.views.Adopt(m, func(v *View[Peer]) {
		f.det.Retain(v.Peers())
		f.mu.Lock()
		f.stats.MembershipChanges++
		f.mu.Unlock()
	})
	return applied, v.Membership()
}

// ProposeJoin adds node to the membership at the next epoch and pushes
// the new list fleet-wide. Any current member can coordinate a join.
// Idempotent: joining a node that is already a member re-broadcasts
// the current list (finishing a half-propagated join) and succeeds.
// Raced proposals adopt the fleet-wide winner and retry.
func (f *Fleet) ProposeJoin(ctx context.Context, node string) (codec.MemberList, error) {
	if node == "" {
		return f.View().Membership(), fmt.Errorf("fleet: join: empty node name")
	}
	return f.propose(ctx, node, func(cur codec.MemberList) ([]string, bool) {
		if containsNode(cur.Nodes, node) {
			return nil, false // already in — nothing to change
		}
		nodes := append([]string(nil), cur.Nodes...)
		nodes = append(nodes, node)
		sort.Strings(nodes)
		return nodes, true
	})
}

// ProposeLeave removes node from the membership at the next epoch and
// pushes the new list fleet-wide. Removing self is the first half of a
// drain-and-depart (see Drain); removing another member is the admin
// path for decommissioning a dead node. Idempotent like ProposeJoin.
func (f *Fleet) ProposeLeave(ctx context.Context, node string) (codec.MemberList, error) {
	if node == "" {
		return f.View().Membership(), fmt.Errorf("fleet: leave: empty node name")
	}
	cur := f.View().Membership()
	if len(cur.Nodes) <= 1 && containsNode(cur.Nodes, node) {
		return cur, fmt.Errorf("fleet: leave: cannot remove the last member %q", node)
	}
	return f.propose(ctx, node, func(cur codec.MemberList) ([]string, bool) {
		if !containsNode(cur.Nodes, node) {
			return nil, false
		}
		nodes := make([]string, 0, len(cur.Nodes)-1)
		for _, n := range cur.Nodes {
			if n != node {
				nodes = append(nodes, n)
			}
		}
		return nodes, true
	})
}

// propose runs the adopt-and-retry proposal loop: compute the changed
// node list against the current membership, apply it locally at
// epoch+1, broadcast, and on an epoch conflict adopt the winner and
// try again from the new base.
func (f *Fleet) propose(ctx context.Context, node string, change func(cur codec.MemberList) ([]string, bool)) (codec.MemberList, error) {
	for attempt := 0; attempt < maxProposeAttempts; attempt++ {
		oldV := f.View()
		cur := oldV.Membership()
		nodes, changed := change(cur)
		if !changed {
			// Already in the desired state; re-broadcast so a proposal
			// that half-propagated before a coordinator crash still
			// reaches every member.
			f.broadcast(ctx, cur, nil)
			return cur, nil
		}
		next := codec.MemberList{Epoch: cur.Epoch + 1, Nodes: nodes}
		// Members removed by this proposal fall out of the view the
		// moment it is applied, but they must still be told — a departing
		// node that never hears the shrunk list keeps claiming ownership.
		// Capture their clients from the pre-apply view.
		var removed map[string]Peer
		for _, n := range oldV.Peers() {
			if !containsNode(nodes, n) {
				if removed == nil {
					removed = make(map[string]Peer)
				}
				removed[n] = oldV.Peer(n)
			}
		}
		if applied, _ := f.ApplyMembership(next); !applied {
			continue // raced locally (heartbeat adopted something newer)
		}
		if f.broadcast(ctx, next, removed) {
			continue // a peer knew a superseding list; retry from it
		}
		return next, nil
	}
	return f.View().Membership(), fmt.Errorf("fleet: propose %q: too many epoch conflicts", node)
}

// broadcast pushes m to every peer in the current view, plus extras —
// members this proposal just removed, who are no longer in the view
// but must still hear the list that excludes them. A peer that answers
// with a superseding list (a raced proposal it already accepted) is
// adopted locally; the return value reports whether that happened,
// i.e. whether m lost somewhere and the proposer must retry.
// Unreachable peers are skipped — they learn the epoch from heartbeats
// and stale-epoch rejections when they return.
func (f *Fleet) broadcast(ctx context.Context, m codec.MemberList, extras map[string]Peer) (conflicted bool) {
	push := func(p Peer) {
		if p == nil {
			return
		}
		got, err := p.PushMembership(ctx, m)
		if err != nil {
			return
		}
		if MembershipSupersedes(got, m) {
			if applied, _ := f.ApplyMembership(got); applied {
				conflicted = true
			}
		}
	}
	v := f.View()
	for _, name := range v.Peers() {
		push(v.Peer(name))
	}
	for _, name := range sortedKeys(extras) {
		push(extras[name])
	}
	return conflicted
}

// containsNode reports membership of node in a sorted-or-not list.
func containsNode(nodes []string, node string) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}
