package storeclient

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/store"
)

// Fleet is a fleet-aware client: it carries the same consistent-hash
// ring the servers use, routes every request to the key's owners
// (primary first), and fails over to the remaining replicas — then to
// the rest of the fleet — when an owner is down. Reads can additionally
// be merged across all owners by version (LookupMerged), which is how a
// reader gets the freshest acknowledged answer while replication or
// anti-entropy is still in flight.
//
// Routing client-side is an optimisation, not a correctness
// requirement: every fleet member forwards what it does not own, so a
// request landing anywhere still finds its key. The ring here just
// makes the common case one hop.
//
// Membership is live: every response carries the serving node's fleet
// epoch in a header, and when a higher epoch than the client's ring was
// built from is observed, the next operation first refreshes — pings
// the members, adopts the highest-epoch member list, and rebuilds the
// ring — so a join or leave propagates to clients without restarting
// them.
type Fleet struct {
	cur          atomic.Pointer[clientView]
	replicasWant int      // configured, pre-clamp
	opts         []Option // per-node client options (epoch hook appended)

	observed  atomic.Uint64 // highest fleet epoch seen in any response
	refreshMu sync.Mutex    // serialises Refresh (view swaps stay ordered)

	failovers   atomic.Uint64
	readRepairs atomic.Uint64
	refreshes   atomic.Uint64
}

// clientView is one immutable membership snapshot: ring, clamped
// replica count, sorted node list, and the per-node clients. Operations
// load it once and run against it; Refresh swaps in a successor.
type clientView struct {
	epoch    uint64
	ring     *fleet.Ring
	replicas int
	nodes    []string // sorted membership (ring order)
	clients  map[string]*Client
}

// NewFleet builds a fleet client over the full membership (the same
// node list every arcsd was started with — the view self-corrects from
// response epochs afterwards). replicas must match the servers'
// -replicas or routing will miss owners; opts apply to every per-node
// client.
func NewFleet(nodes []string, replicas int, opts ...Option) (*Fleet, error) {
	if replicas <= 0 {
		replicas = fleet.DefaultReplicas
	}
	f := &Fleet{replicasWant: replicas, opts: opts}
	v, err := f.buildView(0, nodes, nil)
	if err != nil {
		return nil, err
	}
	f.cur.Store(v)
	return f, nil
}

// buildView constructs a view over nodes at the given epoch, reusing
// clients from old where the node persists so connection pools and
// breakers survive membership changes.
func (f *Fleet) buildView(epoch uint64, nodes []string, old *clientView) (*clientView, error) {
	ring, err := fleet.NewRing(nodes, 0)
	if err != nil {
		return nil, err
	}
	replicas := f.replicasWant
	if replicas > len(ring.Nodes()) {
		replicas = len(ring.Nodes())
	}
	v := &clientView{epoch: epoch, ring: ring, replicas: replicas, nodes: ring.Nodes(), clients: map[string]*Client{}}
	for _, n := range v.nodes {
		if old != nil {
			if c := old.clients[n]; c != nil {
				v.clients[n] = c
				continue
			}
		}
		opts := make([]Option, 0, len(f.opts)+1)
		opts = append(opts, f.opts...)
		opts = append(opts, WithEpochHook(f.observe))
		v.clients[n] = New(n, opts...)
	}
	return v, nil
}

// observe is the per-response epoch hook: it records the highest fleet
// epoch any member has advertised, which arms maybeRefresh.
func (f *Fleet) observe(epoch uint64) {
	for {
		cur := f.observed.Load()
		if epoch <= cur || f.observed.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// view returns the current membership snapshot, refreshing it first
// when a member has advertised a newer epoch than the snapshot was
// built from. Refresh failures are swallowed — the stale view still
// routes correctly via server-side forwarding, just with extra hops.
func (f *Fleet) view(ctx context.Context) *clientView {
	v := f.cur.Load()
	if obs := f.observed.Load(); obs > v.epoch {
		if nv, err := f.Refresh(ctx); err == nil {
			return nv
		}
	}
	return v
}

// Refresh pings the current members, adopts the highest-epoch member
// list any of them returns, and rebuilds the ring and client set from
// it. Safe to call concurrently; swaps are serialised and never move
// the view backwards.
func (f *Fleet) Refresh(ctx context.Context) (*clientView, error) {
	f.refreshMu.Lock()
	defer f.refreshMu.Unlock()
	v := f.cur.Load()
	armed := f.observed.Load()
	best := codec.MemberList{Epoch: v.epoch, Nodes: v.nodes}
	var lastErr error
	got := false
	for _, n := range v.nodes {
		m, err := v.clients[n].Ping(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return v, err
			}
			lastErr = err
			continue
		}
		if m.Epoch == 0 || len(m.Nodes) == 0 {
			continue // standalone daemon: nothing to adopt
		}
		got = true
		if fleet.MembershipSupersedes(m, best) {
			best = m
		}
	}
	if !got && lastErr != nil {
		return v, lastErr
	}
	if best.Epoch <= v.epoch {
		// Nothing newer to adopt: disarm the trigger (unless a still-higher
		// epoch was observed while we were pinging) so operations stop
		// re-pinging the fleet on every call.
		f.observed.CompareAndSwap(armed, v.epoch)
		return v, nil
	}
	nv, err := f.buildView(best.Epoch, best.Nodes, v)
	if err != nil {
		return v, err
	}
	f.cur.Store(nv)
	f.refreshes.Add(1)
	return nv, nil
}

// Nodes returns the sorted membership of the current view.
func (f *Fleet) Nodes() []string { return f.cur.Load().nodes }

// Epoch returns the fleet epoch the current view was built from (0
// until a refresh has adopted a live membership).
func (f *Fleet) Epoch() uint64 { return f.cur.Load().epoch }

// Client returns the per-node client (nil for a non-member), so callers
// can address one specific node — health checks, dump comparisons.
func (f *Fleet) Client(node string) *Client { return f.cur.Load().clients[node] }

// Owners returns the owner list (primary first) for a key.
func (f *Fleet) Owners(k arcs.HistoryKey) []string {
	v := f.cur.Load()
	return v.ring.Owners(k.String(), v.replicas, nil)
}

// Failovers reports how many times a request had to skip past a failed
// node to a later candidate.
func (f *Fleet) Failovers() uint64 { return f.failovers.Load() }

// ReadRepairs reports how many entries LookupMerged pushed back to
// owners that were missing them or held a stale version.
func (f *Fleet) ReadRepairs() uint64 { return f.readRepairs.Load() }

// Refreshes reports how many times the client rebuilt its view from a
// newer fleet epoch.
func (f *Fleet) Refreshes() uint64 { return f.refreshes.Load() }

// route appends the key's owners followed by the remaining members —
// the full failover order for one key under the given view.
func (v *clientView) route(k arcs.HistoryKey) []string {
	order := v.ring.Owners(k.String(), v.replicas, make([]string, 0, len(v.nodes)))
	for _, n := range v.nodes {
		owned := false
		for _, o := range order[:v.replicas] {
			if o == n {
				owned = true
				break
			}
		}
		if !owned {
			order = append(order, n)
		}
	}
	return order
}

// Lookup fetches the best configuration for a key from the first
// responsive node in routing order. A served miss (ErrNotFound) is
// remembered but does not stop the failover — a replica that has the
// entry outranks a primary that answered "nothing yet" (fresh restart,
// replication in flight). Transport failures count as failovers.
func (f *Fleet) Lookup(ctx context.Context, k arcs.HistoryKey, opts LookupOpts) (Result, error) {
	v := f.view(ctx)
	var lastErr error
	notFound := false
	for i, node := range v.route(k) {
		res, err := v.clients[node].Lookup(ctx, k, opts)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Result{}, err
		}
		if errors.Is(err, ErrNotFound) {
			notFound = true
		} else {
			lastErr = err
			if i+1 < len(v.nodes) {
				f.failovers.Add(1)
			}
		}
	}
	if notFound || lastErr == nil {
		return Result{}, ErrNotFound
	}
	return Result{}, lastErr
}

// LookupMerged queries every owner and returns the winning answer under
// the fleet's reconciliation order — the read-repair view: whatever any
// owner has acknowledged, the caller sees, even before anti-entropy
// equalises the replicas. An authoritative answer (exact or searched)
// always outranks a nearest-cap fallback, whatever the versions: a
// fallback is a different context's entry and its version is not
// comparable. Among authoritative answers the higher version wins, then
// the better perf (mirroring store.Supersedes); among fallbacks the
// smaller cap distance wins, ties preferring the lower cap — the same
// deterministic rule the store's own nearest-cap scan applies.
//
// When the winner is authoritative, the lookup also repairs the replicas
// it just observed to be behind: owners that answered "not found", served
// only a fallback, or hold a lower version get the winning entry pushed
// back via /v1/merge (applied under store.Supersedes, so a racing fresher
// write is never clobbered). Repair is synchronous best-effort — a
// failed push is dropped; the anti-entropy sweep remains the backstop.
// Returns ErrNotFound only when no owner has anything; a transport error
// is returned only when every owner failed.
func (f *Fleet) LookupMerged(ctx context.Context, k arcs.HistoryKey, opts LookupOpts) (Result, error) {
	v := f.view(ctx)
	owners := v.ring.Owners(k.String(), v.replicas, nil)
	var best Result
	found := false
	var lastErr error
	results := make(map[string]Result, len(owners))
	missing := make(map[string]bool, len(owners))
	for _, node := range owners {
		res, err := v.clients[node].Lookup(ctx, k, opts)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return Result{}, err
			}
			if errors.Is(err, ErrNotFound) {
				missing[node] = true
			} else {
				lastErr = err
				f.failovers.Add(1)
			}
			continue
		}
		results[node] = res
		if !found || betterResult(res, best) {
			best, found = res, true
		}
	}
	if !found {
		if lastErr != nil {
			return Result{}, lastErr
		}
		return Result{}, ErrNotFound
	}
	if best.Source != "fallback" {
		f.readRepair(ctx, v, k, best, owners, results, missing)
	}
	return best, nil
}

// betterResult reports whether a outranks b in the merged-lookup order.
func betterResult(a, b Result) bool {
	aAuth, bAuth := a.Source != "fallback", b.Source != "fallback"
	if aAuth != bAuth {
		return aAuth
	}
	if aAuth {
		if a.Version != b.Version {
			return a.Version > b.Version
		}
		return a.Perf < b.Perf
	}
	// Both fallbacks: nearest cap first, distance ties toward the lower
	// cap (switch-based so no float equality is ever evaluated).
	switch {
	case a.CapDistance < b.CapDistance:
		return true
	case a.CapDistance > b.CapDistance:
		return false
	case a.Key.CapW < b.Key.CapW:
		return true
	case a.Key.CapW > b.Key.CapW:
		return false
	}
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	return a.Perf < b.Perf
}

// readRepair pushes the winning authoritative entry back to the owners
// that did not have it: a missing or stale replica the caller just
// observed is a replica the next reader would also see — repairing it on
// the read path closes the gap without waiting for the next anti-entropy
// sweep. The push carries the winner's own version, so the receiver's
// Supersedes check makes re-pushing (or racing a newer write) harmless.
func (f *Fleet) readRepair(ctx context.Context, v *clientView, k arcs.HistoryKey, best Result, owners []string, results map[string]Result, missing map[string]bool) {
	entry := store.Entry{Key: k, Cfg: best.Config, Perf: best.Perf, Version: best.Version}
	for _, node := range owners {
		res, answered := results[node]
		stale := missing[node] ||
			(answered && (res.Source == "fallback" || res.Version < best.Version))
		if !stale {
			continue
		}
		if err := v.clients[node].MergeEntries(ctx, []store.Entry{entry}); err == nil {
			f.readRepairs.Add(1)
		}
	}
}

// Neighbors fans the neighbour scan out to every member and merges the
// answers: replicas of the same context are deduplicated (keep-best
// perf), the union re-ranked under the shared distance order. Any single
// responsive node yields a usable seed set; nodes without the endpoint
// (ErrNotFound) or unreachable are skipped.
func (f *Fleet) Neighbors(ctx context.Context, k arcs.HistoryKey, max int) ([]arcs.Neighbor, error) {
	if max <= 0 {
		return nil, nil
	}
	v := f.view(ctx)
	byKey := make(map[string]arcs.Neighbor)
	var lastErr error
	answered := false
	for _, node := range v.nodes {
		ns, err := v.clients[node].Neighbors(ctx, k, max)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			if !errors.Is(err, ErrNotFound) {
				lastErr = err
				f.failovers.Add(1)
			}
			continue
		}
		answered = true
		for _, n := range ns {
			ck := n.Key.String()
			if old, ok := byKey[ck]; !ok || n.Perf < old.Perf {
				byKey[ck] = n
			}
		}
	}
	if !answered && lastErr != nil {
		return nil, lastErr
	}
	out := make([]arcs.Neighbor, 0, len(byKey))
	for _, n := range byKey {
		out = append(out, n)
	}
	arcs.SortNeighbors(out)
	if len(out) > max {
		out = out[:max]
	}
	return out, nil
}

// Report ingests one result: a ReportBatch of one record.
func (f *Fleet) Report(ctx context.Context, k arcs.HistoryKey, cfg arcs.ConfigValues, perf float64) error {
	return f.ReportBatch(ctx, []Report{{Key: k, Cfg: cfg, Perf: perf}})
}

// ReportBatch splits a batch by primary owner (so each sub-batch lands
// where it will be versioned, one hop) and delivers each group to the
// first node in its routing order that acknowledges: the key's owners
// first (the owner authors the replicated version and fans out to its
// co-owners), then any other member (which forwards or
// accepts-and-hints). An ack from any node means the fleet has taken
// responsibility for the group.
func (f *Fleet) ReportBatch(ctx context.Context, reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	v := f.view(ctx)
	groups := make(map[string][]Report)
	for _, r := range reports {
		p := v.ring.Owners(r.Key.String(), 1, nil)[0]
		groups[p] = append(groups[p], r)
	}
	var firstErr error
	for _, primary := range v.nodes { // deterministic group order
		batch := groups[primary]
		if len(batch) == 0 {
			continue
		}
		var lastErr error
		sent := false
		for i, node := range v.route(batch[0].Key) {
			err := v.clients[node].ReportBatch(ctx, batch)
			if err == nil {
				sent = true
				break
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			lastErr = err
			if i+1 < len(v.nodes) {
				f.failovers.Add(1)
			}
		}
		if !sent && firstErr == nil {
			firstErr = lastErr
		}
	}
	return firstErr
}
