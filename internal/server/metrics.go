package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"arcs/internal/evalcache"
	"arcs/internal/fleet"
	"arcs/internal/store"
)

// reqKey labels one requests-counter series.
type reqKey struct {
	endpoint string
	code     int
}

// metrics is a dependency-free Prometheus-text exporter: request counts
// and latency sums per endpoint/status, lookup outcome counters, and the
// store size gauge.
type metrics struct {
	hits, misses, fallbacks  atomic.Uint64
	searches, searchDeduped  atomic.Uint64
	searchErrors, reported   atomic.Uint64
	searchShed, searchPanics atomic.Uint64
	handlerPanics            atomic.Uint64
	merged                   atomic.Uint64
	fleetLookupFwd           atomic.Uint64
	neighborsServed          atomic.Uint64
	membershipApplied        atomic.Uint64
	drainErrors              atomic.Uint64
	transferEpochConflicts   atomic.Uint64
	transferredOut           atomic.Uint64

	mu       sync.Mutex
	requests map[reqKey]uint64  // guarded by mu
	latSum   map[string]float64 // endpoint -> seconds; guarded by mu
	latCount map[string]uint64  // endpoint -> observations; guarded by mu
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[reqKey]uint64),
		latSum:   make(map[string]float64),
		latCount: make(map[string]uint64),
	}
}

func (m *metrics) observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	m.latSum[endpoint] += seconds
	m.latCount[endpoint]++
}

// fleetMetrics carries the fleet-scoped series into write; nil means
// the server runs standalone and the fleet section is omitted.
type fleetMetrics struct {
	stats      fleet.Stats
	nodes      int
	replicas   int
	ownedShare float64
}

// write renders the Prometheus text exposition format, deterministically
// ordered so scrapes and tests are stable.
func (m *metrics) write(w io.Writer, health store.Health, evc evalcache.Stats, fl *fleetMetrics) {
	fmt.Fprintln(w, "# HELP arcsd_requests_total HTTP requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE arcsd_requests_total counter")
	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "arcsd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}
	fmt.Fprintln(w, "# HELP arcsd_request_seconds Cumulative request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE arcsd_request_seconds summary")
	latKeys := make([]string, 0, len(m.latCount))
	for k := range m.latCount {
		latKeys = append(latKeys, k)
	}
	sort.Strings(latKeys)
	for _, k := range latKeys {
		fmt.Fprintf(w, "arcsd_request_seconds_sum{endpoint=%q} %g\n", k, m.latSum[k])
		fmt.Fprintf(w, "arcsd_request_seconds_count{endpoint=%q} %d\n", k, m.latCount[k])
	}
	m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("arcsd_lookup_hits_total", "Exact-key lookup hits.", m.hits.Load())
	counter("arcsd_lookup_fallbacks_total", "Lookups answered by the nearest-cap fallback.", m.fallbacks.Load())
	counter("arcsd_lookup_misses_total", "Lookups with no answer at all.", m.misses.Load())
	counter("arcsd_searches_total", "Server-side searches executed.", m.searches.Load())
	counter("arcsd_search_dedup_total", "Searches avoided by single-flight deduplication.", m.searchDeduped.Load())
	counter("arcsd_search_errors_total", "Server-side searches that failed.", m.searchErrors.Load())
	counter("arcsd_search_shed_total", "Search requests shed by admission control (429).", m.searchShed.Load())
	counter("arcsd_search_panics_total", "Searcher panics contained by the recovery wrapper.", m.searchPanics.Load())
	counter("arcsd_handler_panics_total", "HTTP handler panics converted to 500s.", m.handlerPanics.Load())
	counter("arcsd_reported_entries_total", "Entries ingested through /v1/reports.", m.reported.Load())
	counter("arcsd_neighbors_served_total", "Neighbour records served through /v1/neighbors.", m.neighborsServed.Load())
	counter("arcsd_evalcache_hits_total", "Probe evaluations served from the eval cache.", evc.Hits)
	counter("arcsd_evalcache_misses_total", "Probe evaluations computed fresh (cache misses).", evc.Misses)
	counter("arcsd_evalcache_dedup_total", "Probe evaluations shared with a concurrent in-flight compute.", evc.Dedups)
	fmt.Fprintf(w, "# HELP arcsd_store_entries Current number of stored configurations.\n")
	fmt.Fprintf(w, "# TYPE arcsd_store_entries gauge\narcsd_store_entries %d\n", health.Entries)
	degraded := 0
	if health.Degraded {
		degraded = 1
	}
	fmt.Fprintf(w, "# HELP arcsd_store_degraded 1 when the store is in degraded memory-only mode.\n")
	fmt.Fprintf(w, "# TYPE arcsd_store_degraded gauge\narcsd_store_degraded %d\n", degraded)
	fmt.Fprintf(w, "# HELP arcsd_store_dropped_saves_total Saves accepted in memory but not persisted while degraded.\n")
	fmt.Fprintf(w, "# TYPE arcsd_store_dropped_saves_total counter\narcsd_store_dropped_saves_total %d\n", health.DroppedSaves)
	fmt.Fprintf(w, "# HELP arcsd_store_wal_bytes On-disk size of the write-ahead log.\n")
	fmt.Fprintf(w, "# TYPE arcsd_store_wal_bytes gauge\narcsd_store_wal_bytes %d\n", health.WALBytes)
	fmt.Fprintf(w, "# HELP arcsd_store_snapshot_bytes On-disk size of the compacted snapshot.\n")
	fmt.Fprintf(w, "# TYPE arcsd_store_snapshot_bytes gauge\narcsd_store_snapshot_bytes %d\n", health.SnapshotBytes)
	fmt.Fprintf(w, "# HELP arcsd_evalcache_entries Resident eval-cache entries.\n")
	fmt.Fprintf(w, "# TYPE arcsd_evalcache_entries gauge\narcsd_evalcache_entries %d\n", evc.Entries)
	fmt.Fprintf(w, "# HELP arcsd_evalcache_inflight Probe computations currently running.\n")
	fmt.Fprintf(w, "# TYPE arcsd_evalcache_inflight gauge\narcsd_evalcache_inflight %d\n", evc.InFlight)
	counter("arcsd_merged_entries_total", "Entries accepted through /v1/merge replication.", m.merged.Load())
	if fl == nil {
		return
	}
	counter("arcsd_fleet_lookup_forwards_total", "Config lookups answered by forwarding to an owning peer.", m.fleetLookupFwd.Load())
	counter("arcsd_fleet_report_forwards_total", "Report batches forwarded to owning peers.", fl.stats.Forwards)
	counter("arcsd_fleet_replicated_total", "Locally authored entries replicated out to co-owners.", fl.stats.Replicated)
	counter("arcsd_fleet_merged_in_total", "Entries accepted from peer replication or anti-entropy.", fl.stats.MergedIn)
	counter("arcsd_fleet_repairs_total", "Entries pushed to peers by the anti-entropy sweep.", fl.stats.Repairs)
	counter("arcsd_fleet_sweeps_total", "Completed anti-entropy sweeps.", fl.stats.Sweeps)
	counter("arcsd_fleet_hints_dropped_total", "Hints dropped because a handoff queue overflowed or its peer left.", fl.stats.HandoffDropped)
	counter("arcsd_fleet_fallbacks_total", "Reports accepted locally because every owner was unreachable.", fl.stats.Fallbacks)
	counter("arcsd_fleet_membership_changes_total", "Membership epochs adopted since start.", fl.stats.MembershipChanges)
	counter("arcsd_fleet_membership_applied_total", "Pushed member lists that superseded the local one.", m.membershipApplied.Load())
	counter("arcsd_fleet_heartbeats_total", "Heartbeat pings sent to peers.", fl.stats.Heartbeats)
	counter("arcsd_fleet_heartbeat_failures_total", "Heartbeat pings that failed.", fl.stats.HeartbeatFailures)
	counter("arcsd_fleet_transferred_in_total", "Entries merged from bootstrap range transfers.", fl.stats.TransferredIn)
	counter("arcsd_fleet_transferred_out_total", "Entries served through /v1/transfer.", m.transferredOut.Load())
	counter("arcsd_fleet_transfer_retries_total", "Range-transfer attempts that were retried.", fl.stats.TransferRetries)
	counter("arcsd_fleet_transfer_epoch_conflicts_total", "Transfer requests rejected for naming a stale epoch.", m.transferEpochConflicts.Load())
	counter("arcsd_fleet_drained_total", "Entries pushed to new owners by a decommission drain.", fl.stats.Drained)
	counter("arcsd_fleet_drain_errors_total", "Decommission drains that completed partially.", m.drainErrors.Load())
	fmt.Fprintf(w, "# HELP arcsd_fleet_handoff_depth Hints queued for currently unreachable peers.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_handoff_depth gauge\narcsd_fleet_handoff_depth %d\n", fl.stats.HandoffDepth)
	fmt.Fprintf(w, "# HELP arcsd_fleet_epoch Current membership epoch.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_epoch gauge\narcsd_fleet_epoch %d\n", fl.stats.Epoch)
	fmt.Fprintf(w, "# HELP arcsd_fleet_peers_suspect Peers the failure detector currently suspects.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_peers_suspect gauge\narcsd_fleet_peers_suspect %d\n", fl.stats.PeersSuspect)
	fmt.Fprintf(w, "# HELP arcsd_fleet_peers_dead Peers the failure detector currently declares dead.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_peers_dead gauge\narcsd_fleet_peers_dead %d\n", fl.stats.PeersDead)
	fmt.Fprintf(w, "# HELP arcsd_fleet_nodes Fleet membership size.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_nodes gauge\narcsd_fleet_nodes %d\n", fl.nodes)
	fmt.Fprintf(w, "# HELP arcsd_fleet_replicas Configured replication factor.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_replicas gauge\narcsd_fleet_replicas %d\n", fl.replicas)
	fmt.Fprintf(w, "# HELP arcsd_fleet_owned_share Fraction of the ring this node owns as primary.\n")
	fmt.Fprintf(w, "# TYPE arcsd_fleet_owned_share gauge\narcsd_fleet_owned_share %g\n", fl.ownedShare)
}
