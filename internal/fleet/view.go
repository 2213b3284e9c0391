package fleet

import (
	"sync"
	"sync/atomic"

	"arcs/internal/codec"
)

// View is one membership epoch's immutable placement: the epoch, the
// sorted members, the ring at DefaultVNodes, the replica count clamped
// to the member count, and a handle per member. The server engine holds
// a View of Peer clients; arcsload's verifier holds a View of
// *storeclient.Client to check each key on its owners. Owners is the
// one placement walk, so every holder on the same epoch agrees on who
// owns a key. Operations load a View once and run against it: a
// membership change swaps in a successor (Views.Adopt), so requests in
// flight finish under the epoch they started with.
type View[H comparable] struct {
	epoch    uint64
	ring     *Ring
	replicas int
	handles  map[string]H
	peers    []string // sorted members that have a handle
}

// Epoch returns the membership epoch the view was built from.
func (v *View[H]) Epoch() uint64 { return v.epoch }

// Replicas returns the owners-per-key count in effect: the configured
// count clamped to the member count.
func (v *View[H]) Replicas() int { return v.replicas }

// Membership returns the view's epoch-versioned member list (sorted).
// Callers must not mutate the node slice.
func (v *View[H]) Membership() codec.MemberList {
	return codec.MemberList{Epoch: v.epoch, Nodes: v.ring.Nodes()}
}

// Has reports whether node is a member of this epoch.
func (v *View[H]) Has(node string) bool { return containsNode(v.ring.Nodes(), node) }

// Peer returns the handle for a member, or the zero handle for a
// member without one (the server's self) and for a non-member.
func (v *View[H]) Peer(name string) H { return v.handles[name] }

// Peers returns the sorted members that have a handle — the
// deterministic iteration order for fan-outs. Callers must not mutate
// it.
func (v *View[H]) Peers() []string { return v.peers }

// OwnedShare returns the fraction of the hash space for which node is
// the primary owner.
func (v *View[H]) OwnedShare(node string) float64 { return v.ring.OwnedShare(node) }

// Owners appends a canonical key's owners — primary first, then the
// replicas in ring order — and returns the extended slice.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkFleetRoute/view baseline
func (v *View[H]) Owners(ck string, dst []string) []string {
	return v.ring.Owners(ck, v.replicas, dst)
}

// Views holds a fleet's current View. Adopt is the only way a new one
// is swapped in.
type Views[H comparable] struct {
	replicas int                          // configured owners-per-key (pre-clamp)
	handle   func(name string) (H, error) // builds a new member's handle
	cur      atomic.Pointer[View[H]]

	mu sync.Mutex // serialises Adopt, so swaps stay ordered
}

// NewViews builds the holder with m as its first view. replicas is the
// configured owners-per-key count; handle builds the handle for a member
// that has none in the current view, and may return the zero handle
// for a member that gets none.
func NewViews[H comparable](m codec.MemberList, replicas int, handle func(name string) (H, error)) (*Views[H], error) {
	vs := &Views[H]{replicas: replicas, handle: handle}
	v, err := vs.build(m, &View[H]{})
	if err != nil {
		return nil, err
	}
	vs.cur.Store(v)
	return vs, nil
}

// View returns the current view.
func (vs *Views[H]) View() *View[H] { return vs.cur.Load() }

// Adopt installs m if it supersedes the current membership
// (MembershipSupersedes) and returns the view now in effect and whether
// m was installed. Handles carry over from the current view for members
// that persist, so breakers and connection pools survive an epoch
// change. reconcile, when non-nil, runs with the new view before it is
// swapped in and while no other Adopt can run, so it must not call
// Adopt itself; state that must track the member set (hint queues,
// detector entries) is updated there. An error means m was invalid or
// a handle could not be built; the current view stays.
func (vs *Views[H]) Adopt(m codec.MemberList, reconcile func(next *View[H])) (*View[H], bool, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	old := vs.cur.Load()
	if !MembershipSupersedes(m, old.Membership()) {
		return old, false, nil
	}
	v, err := vs.build(m, old)
	if err != nil {
		return old, false, err
	}
	if reconcile != nil {
		reconcile(v)
	}
	vs.cur.Store(v)
	return v, true, nil
}

// build constructs the view of m, reusing handles from old where the
// member persists.
func (vs *Views[H]) build(m codec.MemberList, old *View[H]) (*View[H], error) {
	ring, err := NewRing(m.Nodes, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	v := &View[H]{
		epoch:    m.Epoch,
		ring:     ring,
		replicas: min(vs.replicas, len(ring.Nodes())),
		handles:  make(map[string]H, len(ring.Nodes())),
	}
	var zero H
	for _, n := range ring.Nodes() {
		h := old.handles[n]
		if h == zero {
			if h, err = vs.handle(n); err != nil {
				return nil, err
			}
		}
		if h != zero {
			v.handles[n] = h
			v.peers = append(v.peers, n)
		}
	}
	return v, nil
}
