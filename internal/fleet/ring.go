// Package fleet turns N independent arcsd processes into one logical
// knowledge store. A View is one membership epoch's placement: a
// deterministic consistent-hash ring over the canonical HistoryKey
// string that gives every key a primary and R-1 replicas, plus a handle
// per member; Views.Adopt is the one place a superseding membership is
// swapped in. Clients may send to any member: writes are accepted by
// any owner, versioned by the store, and replicated owner-to-owner under
// store.Supersedes (keep-best: lower perf wins, then higher version);
// writes at a non-owner are forwarded to the owners and lookups at a
// non-owner are proxied one hop; and a periodic anti-entropy sweep,
// the one repair path, exchanges per-shard digests (codec.KindDigest)
// and pushes whatever a down or lagging owner missed from the durable
// store. See DESIGN.md §12 and §15.
//
// Everything in the package is deterministic by contract (enforced by
// arcslint): placement depends only on the member names, sweep
// scheduling is driven by the caller's ticks and a seeded generator,
// and no code path reads a wall clock.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the number of virtual points each node projects onto
// a View's ring (and NewRing's when vnodes is zero). 64 points per node keeps the
// ownership share of a 3-node fleet within a few percent of 1/3 while
// the ring stays small enough to rebuild instantly on membership
// change.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring: every node contributes
// VNodes points (FNV-64a of "name#i"), keys hash with the same function
// and are owned by the next points clockwise. Immutability is the
// concurrency story — lookups are lock-free, and membership change
// means building a new Ring.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member names
	vnodes int
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given member names. Names must be
// non-empty and unique; order does not matter (the ring sorts them, so
// every fleet member building a ring from the same membership set gets
// the identical ring regardless of flag order).
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("fleet: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("fleet: duplicate node name %q", n)
		}
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(sorted)*vnodes),
		nodes:  sorted,
		vnodes: vnodes,
	}
	var buf []byte
	for ni, n := range sorted {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], n...)
			buf = append(buf, '#')
			buf = appendUint(buf, uint64(v))
			r.points = append(r.points, ringPoint{hash: hash64(buf), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between virtual points are broken by node
		// order so every member sorts identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the sorted member names. Callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Owners appends the n distinct nodes owning key — the first is the
// primary, the rest the replicas in ring order — and returns the
// extended slice (append-style, so routing allocates nothing at steady
// state). n is clamped to the member count.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkFleetRoute/ring baseline
func (r *Ring) Owners(key string, n int, dst []string) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	h := hash64str(key)
	// First point clockwise from the key's hash.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	base := len(dst)
	for walked := 0; walked < len(r.points) && len(dst)-base < n; walked++ {
		cand := r.nodes[r.points[(i+walked)%len(r.points)].node]
		dup := false
		for _, got := range dst[base:] {
			if got == cand {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand)
		}
	}
	return dst
}

// OwnedShare returns the fraction of the hash space for which node is
// the primary owner — the load-balance gauge exported on /metrics. A
// node not in the ring owns nothing.
func (r *Ring) OwnedShare(node string) float64 {
	ni := -1
	for i, n := range r.nodes {
		if n == node {
			ni = i
			break
		}
	}
	if ni < 0 || len(r.points) == 0 {
		return 0
	}
	var owned float64 // accumulated in float64: the arcs of a node owning everything sum to 2^64, which wraps a uint64 to zero
	for i, p := range r.points {
		if p.node != ni {
			continue
		}
		// Point i owns the arc from the previous point (exclusive) to
		// itself (inclusive), wrapping at zero.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		d := p.hash - prev // uint64 subtraction wraps to the clockwise distance
		if len(r.points) == 1 {
			d = ^uint64(0) // a single point owns the (approximately) full circle
		}
		owned += float64(d)
	}
	return owned / (1 << 64)
}

// hash64 is the ring's placement function: FNV-64a finalised with the
// MurmurHash3 64-bit mixer. Raw FNV clusters badly on the near-identical
// strings rings are made of (peer URLs differing in one character,
// virtual points differing in a decimal suffix) — without the avalanche
// step a 3-node 64-vnode ring measured a 67%/11%/22% split. The
// function must never change: every member must compute identical
// placements, and a rolling upgrade that changed the hash would route
// every key differently mid-flight.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return mix64(h.Sum64())
}

// hash64str is hash64 without forcing the string onto the heap.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hash64str(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// mix64 is the MurmurHash3 fmix64 finaliser: full avalanche, so every
// input bit moves every output bit with probability ~1/2.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// appendUint appends the decimal form of v without fmt.
func appendUint(dst []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, tmp[i:]...)
}
