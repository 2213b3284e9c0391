package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"arcs/internal/codec"
	"arcs/internal/store"
)

// Defaults for Config fields left zero.
const (
	// DefaultReplicas is the number of owners per key (primary
	// included): every key survives one node failure.
	DefaultReplicas = 2
	// DefaultHandoffMax bounds each per-peer hint queue.
	DefaultHandoffMax = 4096
)

// Peer is the fleet's view of one remote arcsd: the intra-fleet RPCs.
// *storeclient.Client satisfies it. The interface lives here (and
// names only store/codec/context types) so fleet does not import
// storeclient — storeclient imports fleet for EpochMismatchError.
type Peer interface {
	// MergeEntries replicates already-versioned entries owner-to-owner
	// (POST /v1/merge, applied under store.Supersedes).
	MergeEntries(ctx context.Context, entries []store.Entry) error
	// ForwardReports re-routes reports to a node that owns them (POST
	// /v1/reports with the forwarded marker; the receiver authors
	// versions via its normal Save path).
	ForwardReports(ctx context.Context, reports []codec.Report) error
	// ShardDigest fetches the peer's anti-entropy summary of one store
	// shard (GET /v1/digest).
	ShardDigest(ctx context.Context, shard int) (codec.Digest, error)
	// Ping probes liveness and returns the peer's current member list
	// (GET /v1/ping) — the heartbeat and the epoch-gossip channel in
	// one round trip.
	Ping(ctx context.Context) (codec.MemberList, error)
	// PushMembership offers the peer an epoch-versioned member list
	// (POST /v1/membership) and returns the list the peer holds after
	// considering it — m itself on acceptance, something superseding on
	// a lost race.
	PushMembership(ctx context.Context, m codec.MemberList) (codec.MemberList, error)
	// TransferRange pulls one store shard's entries owned by forNode
	// under the given epoch's ring (GET /v1/transfer). A peer on a
	// different epoch rejects with an *EpochMismatchError carrying its
	// current member list.
	TransferRange(ctx context.Context, shard int, forNode string, epoch uint64) ([]store.Entry, error)
}

// Config assembles a Fleet.
type Config struct {
	// Self is this node's name in Nodes (by convention its advertised
	// base URL).
	Self string
	// Nodes is the initial fleet membership, self included. Order does
	// not matter. Membership is live after construction: joins and
	// leaves swap in new epochs via ApplyMembership and friends.
	Nodes []string
	// Epoch is the initial membership epoch; zero selects 1. A node
	// (re)started with a stale epoch self-corrects from heartbeats and
	// stale-epoch rejections.
	Epoch uint64
	// Replicas is the number of owners per key, clamped to the live
	// member count; zero selects DefaultReplicas.
	Replicas int
	// Store is the local knowledge store.
	Store *store.Store
	// Peers maps other member names to their clients. Members missing
	// here are constructed through NewPeer; a member with neither is a
	// construction error.
	Peers map[string]Peer
	// NewPeer builds a client for a member that joins after
	// construction (and for any initial member missing from Peers).
	// Nil means membership is effectively static: a join this node
	// cannot build a client for is rejected locally.
	NewPeer func(name string) Peer
	// Seed drives the anti-entropy sweep order and the heartbeat probe
	// order. Seed-driven, not wall-clock-driven (determinism
	// contract): equal seeds and equal tick sequences behave
	// identically.
	Seed int64
	// HandoffMax bounds each per-peer hint queue; zero selects
	// DefaultHandoffMax.
	HandoffMax int
	// SuspectAfter and DeadAfter configure the failure detector; zero
	// selects DefaultSuspectAfter / DefaultDeadAfter.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
}

// Stats is a point-in-time snapshot of the fleet counters, exported on
// /healthz and /metrics.
type Stats struct {
	// Epoch is the current membership epoch.
	Epoch uint64 `json:"epoch"`
	// Members is the current member count (self included).
	Members int `json:"members"`
	// MembershipChanges counts epochs this node has installed.
	MembershipChanges uint64 `json:"membership_changes"`
	// Forwards counts reports this node routed to an owner because it
	// did not own the key.
	Forwards uint64 `json:"forwards"`
	// Replicated counts entries pushed owner-to-owner at write time.
	Replicated uint64 `json:"replicated"`
	// MergedIn counts replicated entries this node accepted (a pushed
	// entry that lost its Supersedes race is not counted).
	MergedIn uint64 `json:"merged_in"`
	// Repairs counts entries pushed by the anti-entropy sweep to a peer
	// that was missing, behind, or divergent.
	Repairs uint64 `json:"repairs"`
	// Sweeps counts completed anti-entropy rounds.
	Sweeps uint64 `json:"sweeps"`
	// HandoffDepth is the current total of queued hints across peers.
	HandoffDepth int `json:"handoff_depth"`
	// HandoffDropped counts hints dropped — on queue overflow or when
	// a membership change retired the peer the hint was owed to. Both
	// are repaired later by anti-entropy. Cumulative, so a dropped
	// hint stays counted after its queue is gone.
	HandoffDropped uint64 `json:"handoff_dropped"`
	// Fallbacks counts reports accepted locally by a non-owner because
	// every owner was unreachable.
	Fallbacks uint64 `json:"fallbacks"`
	// Heartbeats and HeartbeatFailures count liveness probes sent and
	// failed.
	Heartbeats        uint64 `json:"heartbeats"`
	HeartbeatFailures uint64 `json:"heartbeat_failures"`
	// PeersSuspect and PeersDead gauge the detector's current view.
	PeersSuspect int `json:"peers_suspect"`
	PeersDead    int `json:"peers_dead"`
	// TransferredIn counts entries this node merged from bootstrap
	// range transfers; TransferRetries counts transfer attempts that
	// had to be retried.
	TransferredIn   uint64 `json:"transferred_in"`
	TransferRetries uint64 `json:"transfer_retries"`
	// Drained counts entry-pushes acknowledged while leaving.
	Drained uint64 `json:"drained"`
}

// Fleet is one node's share of the replicated knowledge store. All
// methods are safe for concurrent use; Tick and Heartbeat are
// typically driven by timer goroutines but may race Ingest freely.
type Fleet struct {
	self       string
	handoffMax int
	st         *store.Store
	seedPeers  map[string]Peer // Config.Peers; consulted before NewPeer
	newPeer    func(name string) Peer
	det        *Detector
	views      *Views[Peer] // other members' clients; self has no handle

	mu    sync.Mutex
	rng   *rand.Rand            // sweep/heartbeat-order source; guarded by mu
	hints map[string]*hintQueue // per-peer handoff queues; guarded by mu
	stats Stats                 // guarded by mu
}

// New validates the initial membership and builds the node's fleet
// state.
func New(cfg Config) (*Fleet, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: nil store")
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	handoffMax := cfg.HandoffMax
	if handoffMax <= 0 {
		handoffMax = DefaultHandoffMax
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = 1
	}
	f := &Fleet{
		self:       cfg.Self,
		handoffMax: handoffMax,
		st:         cfg.Store,
		seedPeers:  cfg.Peers,
		newPeer:    cfg.NewPeer,
		det:        NewDetector(cfg.SuspectAfter, cfg.DeadAfter),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		hints:      make(map[string]*hintQueue),
	}
	var err error
	f.views, err = NewViews(codec.MemberList{Epoch: epoch, Nodes: cfg.Nodes}, replicas, f.resolvePeer)
	if err != nil {
		return nil, err
	}
	v := f.View()
	if !v.Has(cfg.Self) {
		return nil, fmt.Errorf("fleet: self %q not in membership %v", cfg.Self, v.Membership().Nodes)
	}
	for _, n := range v.Peers() {
		f.hints[n] = newHintQueue(handoffMax) //arcslint:ignore guardedby constructor; the fleet has not escaped yet
	}
	return f, nil
}

// resolvePeer builds the handle for a member new to the view: none for
// self, else Config.Peers' client, else one from Config.NewPeer.
func (f *Fleet) resolvePeer(name string) (Peer, error) {
	if name == f.self {
		return nil, nil
	}
	if p := f.seedPeers[name]; p != nil {
		return p, nil
	}
	if f.newPeer != nil {
		if p := f.newPeer(name); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fleet: no peer client for member %q", name)
}

// View returns the current membership epoch's placement. Load it once
// per decision: a membership change swaps in a new View, so two loads
// may see two epochs.
func (f *Fleet) View() *View[Peer] { return f.views.View() }

// Self returns this node's member name.
func (f *Fleet) Self() string { return f.self }

// Detector returns the failure detector (for /healthz reporting).
func (f *Fleet) Detector() *Detector { return f.det }

// Ingest routes a batch of validated reports. Owned (or forwarded)
// reports Save locally — the store authors the replicated version — and
// the resulting entries replicate to the other owners, falling back to
// the handoff queue when an owner is down. Unowned reports forward to
// their owners in ring order; if every owner is unreachable the report
// is accepted locally anyway (never drop an acknowledged best) and a
// report-kind hint re-injects it at the primary later.
//
// forwarded marks a request another member already routed (the
// codec.ForwardedHeader): it is always applied locally and never
// re-forwarded, so a stale ring cannot bounce a report around the
// fleet. The return value is the number of reports durably accepted —
// saved here or acknowledged by an owner — which the server surfaces in
// its Ack.
func (f *Fleet) Ingest(ctx context.Context, reports []codec.Report, forwarded bool) int {
	if len(reports) == 0 {
		return 0
	}
	v := f.View()
	accepted := 0
	mergeBatch := make(map[string][]store.Entry) // peer -> entries to replicate
	type fwdBatch struct {
		owners  []string
		reports []codec.Report
	}
	forwards := make(map[string]*fwdBatch) // primary -> batch
	var ownerBuf []string
	for _, r := range reports {
		ck := r.Key.String()
		ownerBuf = v.Owners(ck, ownerBuf[:0])
		owned := containsNode(ownerBuf, f.self)
		if owned || forwarded {
			f.st.Save(r.Key, r.Cfg, r.Perf)
			accepted++
			if e, ok := f.st.Get(r.Key); ok && owned {
				for _, o := range ownerBuf {
					if o != f.self {
						mergeBatch[o] = append(mergeBatch[o], e)
					}
				}
			}
			continue
		}
		primary := ownerBuf[0]
		b := forwards[primary]
		if b == nil {
			b = &fwdBatch{owners: append([]string(nil), ownerBuf...)}
			forwards[primary] = b
		}
		b.reports = append(b.reports, r)
	}

	// Replicate owned writes to their co-owners, one batch per peer.
	for _, name := range sortedKeys(mergeBatch) {
		entries := mergeBatch[name]
		if err := v.Peer(name).MergeEntries(ctx, entries); err != nil {
			f.mu.Lock()
			for _, e := range entries {
				f.hintAdd(name, e.Key.String(), hint{kind: hintMerge, key: e.Key})
			}
			f.mu.Unlock()
			continue
		}
		f.mu.Lock()
		f.stats.Replicated += uint64(len(entries))
		f.mu.Unlock()
	}

	// Forward unowned reports, failing over through the owner list.
	for _, primary := range sortedKeys(forwards) {
		b := forwards[primary]
		sent := false
		for _, o := range b.owners {
			if err := v.Peer(o).ForwardReports(ctx, b.reports); err == nil {
				sent = true
				break
			}
		}
		if sent {
			accepted += len(b.reports)
			f.mu.Lock()
			f.stats.Forwards += uint64(len(b.reports))
			f.mu.Unlock()
			continue
		}
		// Total owner outage: accept locally so the client's ack means
		// something, and owe the primary a re-injection.
		f.mu.Lock()
		f.stats.Fallbacks += uint64(len(b.reports))
		for _, r := range b.reports {
			f.hintAdd(primary, r.Key.String(), hint{kind: hintReport, key: r.Key, report: r})
		}
		f.mu.Unlock()
		for _, r := range b.reports {
			f.st.Save(r.Key, r.Cfg, r.Perf)
			accepted++
		}
	}
	return accepted
}

// hintAdd queues an obligation to a peer, counting the drop if the
// queue is full or the peer has left the membership since the caller
// loaded its view (anti-entropy repairs both).
//
//arcslint:locked mu
func (f *Fleet) hintAdd(name, ck string, h hint) {
	q := f.hints[name]
	if q == nil {
		f.stats.HandoffDropped++
		return
	}
	if !q.add(ck, h) {
		f.stats.HandoffDropped++
	}
}

// MergeLocal applies entries a peer replicated to this node (the
// /v1/merge handler). Deliberately no onward replication: the authoring
// owner pushes to every co-owner itself, so a merge fans out once, not
// transitively. Returns the number of entries accepted.
func (f *Fleet) MergeLocal(entries []store.Entry) int {
	n := 0
	for _, e := range entries {
		if f.st.Merge(e) {
			n++
		}
	}
	f.mu.Lock()
	f.stats.MergedIn += uint64(n)
	f.mu.Unlock()
	return n
}

// Tick runs one maintenance round: drain every handoff queue whose
// peer answers, then one anti-entropy sweep. Driven externally (cmd/
// arcsd's timer goroutine, tests calling it directly) — the package
// itself never schedules anything, which is what keeps it under the
// determinism contract.
func (f *Fleet) Tick(ctx context.Context) {
	f.drainHints(ctx)
	f.sweep(ctx)
}

// Heartbeat runs one liveness round at the injected time: ping every
// peer in a seeded order, feed the failure detector, and adopt any
// superseding member list a peer gossips back (the recovery path for a
// node that missed a membership push while down). Driven externally
// like Tick; now is injected so the detector stays deterministic.
func (f *Fleet) Heartbeat(ctx context.Context, now time.Time) []Transition {
	v := f.View()
	f.mu.Lock()
	order := f.rng.Perm(len(v.Peers()))
	f.mu.Unlock()
	for _, oi := range order {
		name := v.Peers()[oi]
		m, err := v.Peer(name).Ping(ctx)
		f.mu.Lock()
		f.stats.Heartbeats++
		if err != nil {
			f.stats.HeartbeatFailures++
		}
		f.mu.Unlock()
		if err != nil {
			continue
		}
		f.det.Observe(name, now)
		f.ApplyMembership(m)
	}
	return f.det.Check(now, f.View().Peers())
}

// drainHints empties each peer's queue: merge hints re-resolve the
// key's current entry (one send covers any number of queued updates)
// and report hints re-inject through the owner's report path. A peer
// still down gets its hints back.
func (f *Fleet) drainHints(ctx context.Context) {
	v := f.View()
	for _, name := range v.Peers() {
		if f.det.State(name) == StateDead {
			continue // keep the hints; heartbeat revives the peer first
		}
		f.mu.Lock()
		q := f.hints[name]
		var hs []hint
		if q != nil {
			hs = q.take()
		}
		f.mu.Unlock()
		if len(hs) == 0 {
			continue
		}
		var entries []store.Entry
		var reports []codec.Report
		for _, h := range hs {
			switch h.kind {
			case hintMerge:
				if e, ok := f.st.Get(h.key); ok {
					entries = append(entries, e)
				}
			case hintReport:
				reports = append(reports, h.report)
			}
		}
		failed := hs[:0]
		if len(entries) > 0 {
			if err := v.Peer(name).MergeEntries(ctx, entries); err != nil {
				for _, h := range hs {
					if h.kind == hintMerge {
						failed = append(failed, h)
					}
				}
			}
		}
		if len(reports) > 0 {
			if err := v.Peer(name).ForwardReports(ctx, reports); err != nil {
				for _, h := range hs {
					if h.kind == hintReport {
						failed = append(failed, h)
					}
				}
			}
		}
		if len(failed) > 0 {
			f.mu.Lock()
			for _, h := range failed {
				f.hintAdd(name, h.key.String(), h)
			}
			f.mu.Unlock()
		}
	}
}

// sweep runs one push-side anti-entropy round: for every peer (visited
// in a seed-driven order) and every store shard, fetch the peer's
// digest and push whatever it is missing, behind on, or divergent on.
// Shard i names the same contexts on every node (store.NumShards), so
// the local shard and the peer's digest cover the same keys.
// Pull is unnecessary — the peer's own sweep pushes the other
// direction, and the Supersedes total order makes the crossing pushes
// converge byte-identically.
func (f *Fleet) sweep(ctx context.Context) {
	v := f.View()
	f.mu.Lock()
	order := f.rng.Perm(len(v.Peers()))
	f.mu.Unlock()
	for _, oi := range order {
		name := v.Peers()[oi]
		if f.det.State(name) == StateDead {
			continue // skip a declared-dead peer; heartbeat revives it
		}
		peer := v.Peer(name)
		var mergePush []store.Entry
		var reportPush []codec.Report
		down := false
		var ownerBuf []string
		for shard := 0; shard < store.NumShards && !down; shard++ {
			local := f.st.ShardEntries(shard)
			if len(local) == 0 {
				continue
			}
			dg, err := peer.ShardDigest(ctx, shard)
			if err != nil {
				down = true // peer unreachable: skip it this round
				break
			}
			remote := make(map[string]codec.DigestEntry, len(dg.Entries))
			for _, de := range dg.Entries {
				remote[de.Key] = de
			}
			for _, e := range local {
				ck := e.Key.String()
				ownerBuf = v.Owners(ck, ownerBuf[:0])
				if !containsNode(ownerBuf, name) {
					continue // never push a key onto a node that does not own it
				}
				de, ok := remote[ck]
				if containsNode(ownerBuf, f.self) {
					// Owner-to-owner: repair when the peer is missing the
					// key or its entry loses to ours under the merge order.
					if !ok || store.SupersedesDigest(e, de) {
						mergePush = append(mergePush, e)
					}
					continue
				}
				// Stray data on a non-owner (accepted during an owner
				// outage): re-inject through the owner's report path iff
				// it would improve the owner's record.
				if !ok || e.Perf < de.Perf {
					reportPush = append(reportPush, codec.Report{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf})
				}
			}
		}
		if down {
			continue
		}
		repaired := 0
		if len(mergePush) > 0 {
			if err := peer.MergeEntries(ctx, mergePush); err == nil {
				repaired += len(mergePush)
			}
		}
		if len(reportPush) > 0 {
			if err := peer.ForwardReports(ctx, reportPush); err == nil {
				repaired += len(reportPush)
			}
		}
		if repaired > 0 {
			f.mu.Lock()
			f.stats.Repairs += uint64(repaired)
			f.mu.Unlock()
		}
	}
	f.mu.Lock()
	f.stats.Sweeps++
	f.mu.Unlock()
}

// BuildDigest summarises one store shard for the /v1/digest handler,
// one row per entry in canonical key order (ShardEntries order).
func BuildDigest(st *store.Store, shard int) codec.Digest {
	entries := st.ShardEntries(shard)
	d := codec.Digest{Shard: uint64(shard)}
	if len(entries) == 0 {
		return d
	}
	d.Entries = make([]codec.DigestEntry, len(entries))
	for i, e := range entries {
		d.Entries[i] = codec.DigestEntry{
			Key:     e.Key.String(),
			Version: e.Version,
			Perf:    e.Perf,
			CfgSum:  codec.ConfigChecksum(&e.Cfg),
		}
	}
	return d
}

// Stats snapshots the counters.
func (f *Fleet) Stats() Stats {
	v := f.View()
	f.mu.Lock()
	s := f.stats
	s.HandoffDepth = 0
	for _, name := range v.Peers() {
		if q := f.hints[name]; q != nil {
			s.HandoffDepth += q.depth()
		}
	}
	f.mu.Unlock()
	s.Epoch = v.Epoch()
	s.Members = len(v.Membership().Nodes)
	s.PeersSuspect, s.PeersDead = f.det.Counts()
	return s
}

// sortedKeys returns a map's keys sorted — the deterministic iteration
// order for per-peer batches.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
