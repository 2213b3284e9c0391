// Package server implements arcsd's HTTP API: best-configuration lookups
// served from a persistent knowledge store (internal/store), ingest of
// search results, and — on a total miss — a bounded server-side Harmony
// search against the simulator, deduplicated so N concurrent clients of
// the same cold key trigger exactly one search.
//
// Endpoints, each with its encoding ("frame" is the binary codec of
// internal/codec, application/x-arcs-bin):
//
//	GET  /v1/config?app=&workload=&cap=&region=[&arch=][&fallback=0][&search=0]
//	                  JSON, or a frame under Accept: application/x-arcs-bin
//	POST /v1/reports  a JSON array (or one object), or one report-batch frame;
//	                  the ack follows Accept like /v1/config
//	GET  /v1/neighbors?app=&workload=&region=&cap=[&max=]   JSON: ranked transfer donors
//	GET  /v1/dump     JSON: full entry set with versions, streamed
//	GET  /v1/digest?shard=N   frame: per-shard anti-entropy digest
//	POST /v1/merge    entry frames: intra-fleet replication of versioned entries
//	GET  /v1/ping     JSON: liveness probe answering the current member list
//	POST /v1/membership   member-list frame: epoch-versioned gossip (fleet only)
//	POST /v1/join     JSON admin: add a node to the live membership
//	POST /v1/leave    JSON admin: remove a node (the node itself drains first)
//	GET  /v1/transfer?shard=N&for=NODE&epoch=E   frame: ring-aware bootstrap stream
//	GET  /healthz     JSON
//	GET  /metrics     Prometheus text format
//
// With Config.Fleet set the server is one member of a replicated fleet
// (internal/fleet): reports it does not own are routed to their owners,
// lookups for unowned keys are proxied one hop (the X-Arcs-Fleet-
// Forwarded header stops a second hop), and /v1/digest + /v1/merge
// carry the fleet's replication and anti-entropy traffic.
//
// JSON serves only the endpoints a person drives with curl; every
// fleet-internal hop has exactly one encoding, the binary frame, and a
// JSON body there is refused with 415. Error bodies are always JSON.
// See wire.go and DESIGN.md §11.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/fleet"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

const (
	// DefaultMaxConcurrentSearches is the admission-control bound on
	// in-flight server-side searches when Config leaves it zero.
	DefaultMaxConcurrentSearches = 4

	// DefaultSearchTimeout is the per-search deadline when Config leaves
	// it zero.
	DefaultSearchTimeout = 30 * time.Second
)

// Config assembles a Server.
type Config struct {
	// Store is the backing knowledge store (required).
	Store *store.Store
	// Searcher answers total misses; nil selects the simulator-backed
	// SimSearcher with a server-owned eval cache.
	Searcher Searcher
	// SearchBudget caps the evaluations per region of a server-side
	// search; 0 disables server-side searching entirely.
	SearchBudget int
	// SearchParallelism bounds concurrent candidate probes inside one
	// server-side search (the arcsd -search-parallelism flag); 0 selects
	// GOMAXPROCS, 1 evaluates serially. Ignored when Searcher is set.
	SearchParallelism int
	// SearchAlgo selects the server-side search strategy (the arcsd
	// -search-algo flag); AlgoAuto keeps the historical Nelder-Mead.
	// AlgoSurrogate additionally seeds each search from the store's
	// neighbouring contexts (cross-context transfer). Ignored when
	// Searcher is set.
	SearchAlgo arcs.SearchAlgo
	// MaxConcurrentSearches bounds in-flight server-side searches. A cold
	// miss that would need a search beyond the bound is shed with 429 and
	// a Retry-After header instead of queueing unboundedly (joining an
	// already-running search for the same key never needs a slot). Zero
	// selects DefaultMaxConcurrentSearches; negative disables admission
	// control.
	MaxConcurrentSearches int
	// SearchTimeout is the deadline applied around one Searcher.Search
	// call. A searcher that ignores its context is abandoned at the
	// deadline (its admission slot stays held until it actually returns,
	// so hung searches count against MaxConcurrentSearches instead of
	// piling up goroutines). Zero selects DefaultSearchTimeout; negative
	// disables the deadline.
	SearchTimeout time.Duration
	// Fleet makes this server one member of a replicated fleet: reports
	// route through Fleet.Ingest and unowned lookups proxy to their
	// owners. Nil serves standalone (every key owned locally).
	Fleet *fleet.Fleet
	// PeerClient returns the lookup client for one fleet member (nil for
	// an unknown name), used to proxy /v1/config to a key's owners. A
	// function rather than a map because membership is live: joins and
	// leaves change the member set while the server runs, and the
	// registry behind this callback is what tracks them. Ignored when
	// Fleet is nil.
	PeerClient func(name string) *storeclient.Client
}

// Server is the arcsd HTTP handler.
type Server struct {
	st            *store.Store
	searcher      Searcher
	budget        int
	searchTimeout time.Duration
	searchSem     chan struct{} // admission slots; nil = unbounded
	start         time.Time     // for /healthz uptime
	mux           *http.ServeMux
	met           *metrics
	evc           *evalcache.Cache // probe memoisation for the default searcher
	fleet         *fleet.Fleet     // nil when standalone
	peerClient    func(string) *storeclient.Client

	sfMu     sync.Mutex
	inflight map[string]*flight // guarded by sfMu
}

// Sentinel errors for the search admission path.
var (
	errSearchShed    = errors.New("server: search capacity exhausted")
	errSearchTimeout = errors.New("server: search deadline exceeded")
)

// flight is one in-progress server-side search; latecomers for the same
// key wait on done instead of searching again.
type flight struct {
	done chan struct{}
	err  error
}

// New builds a Server; panics on a nil store (a programming error, not a
// runtime condition).
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: nil store")
	}
	s := &Server{
		st:            cfg.Store,
		searcher:      cfg.Searcher,
		budget:        cfg.SearchBudget,
		searchTimeout: cfg.SearchTimeout,
		start:         time.Now(),
		mux:           http.NewServeMux(),
		met:           newMetrics(),
		inflight:      make(map[string]*flight),
		fleet:         cfg.Fleet,
		peerClient:    cfg.PeerClient,
	}
	if s.peerClient == nil {
		s.peerClient = func(string) *storeclient.Client { return nil }
	}
	if s.searchTimeout == 0 {
		s.searchTimeout = DefaultSearchTimeout
	}
	maxSearches := cfg.MaxConcurrentSearches
	if maxSearches == 0 {
		maxSearches = DefaultMaxConcurrentSearches
	}
	if maxSearches > 0 {
		s.searchSem = make(chan struct{}, maxSearches)
	}
	if s.searcher == nil {
		s.evc = evalcache.New()
		s.searcher = SimSearcher{
			Parallelism: cfg.SearchParallelism,
			Cache:       s.evc,
			Algo:        cfg.SearchAlgo,
			Neighbors:   cfg.Store.LoadNeighbors,
		}
	}
	s.mux.HandleFunc("/v1/config", s.instrument("config", s.handleConfig))
	s.mux.HandleFunc("/v1/neighbors", s.instrument("neighbors", s.handleNeighbors))
	s.mux.HandleFunc("/v1/reports", s.instrument("reports", s.handleReport))
	s.mux.HandleFunc("/v1/dump", s.instrument("dump", s.handleDump))
	s.mux.HandleFunc("/v1/digest", s.instrument("digest", s.handleDigest))
	s.mux.HandleFunc("/v1/merge", s.instrument("merge", s.handleMerge))
	s.mux.HandleFunc("/v1/ping", s.instrument("ping", s.handlePing))
	s.mux.HandleFunc("/v1/membership", s.instrument("membership", s.handleMembership))
	s.mux.HandleFunc("/v1/join", s.instrument("join", s.handleJoin))
	s.mux.HandleFunc("/v1/leave", s.instrument("leave", s.handleLeave))
	s.mux.HandleFunc("/v1/transfer", s.instrument("transfer", s.handleTransfer))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ConfigResponse is the GET /v1/config payload.
type ConfigResponse struct {
	Key     arcs.HistoryKey   `json:"key"`
	Config  arcs.ConfigValues `json:"config"`
	Perf    float64           `json:"perf"`
	Version uint64            `json:"version"`
	// Source is how the answer was found: "exact", "fallback" (nearest
	// cap) or "searched" (server-side search just ran).
	Source string `json:"source"`
	// CapDistance is the |Δcap| in watts for fallback answers (0 exact).
	CapDistance float64 `json:"cap_distance,omitempty"`
}

// ReportRequest is one JSON POST /v1/reports record.
type ReportRequest struct {
	Key  arcs.HistoryKey   `json:"key"`
	Cfg  arcs.ConfigValues `json:"config"`
	Perf float64           `json:"perf"`
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	key := arcs.HistoryKey{
		App:      q.Get("app"),
		Workload: q.Get("workload"),
		Region:   q.Get("region"),
	}
	if key.App == "" || key.Region == "" {
		errorJSON(w, http.StatusBadRequest, "app and region are required")
		return
	}
	if capStr := q.Get("cap"); capStr != "" {
		capW, err := strconv.ParseFloat(capStr, 64)
		if err != nil || math.IsNaN(capW) || math.IsInf(capW, 0) {
			errorJSON(w, http.StatusBadRequest, "bad cap %q", capStr)
			return
		}
		key.CapW = capW
	}
	allowFallback := q.Get("fallback") != "0"
	allowSearch := q.Get("search") != "0"

	// Fleet routing: a lookup for a key this node does not own proxies
	// one hop to the owners, who hold the authoritative (replicated)
	// record. Already-forwarded requests are answered locally whatever
	// the ring says — one hop, never a loop. If every owner is
	// unreachable (or has nothing), fall through and serve whatever is
	// known locally: a stray answer beats an outage. One view answers
	// both "do I own it" and "who does", so the decision and the walk
	// share an epoch.
	if s.fleet != nil && r.Header.Get(codec.ForwardedHeader) == "" {
		var stack [8]string
		if owners := s.fleet.View().Owners(key.String(), stack[:0]); !slices.Contains(owners, s.fleet.Self()) {
			arch := q.Get("arch")
			for _, owner := range owners {
				peer := s.peerClient(owner)
				if peer == nil {
					continue
				}
				res, err := peer.Lookup(r.Context(), key, storeclient.LookupOpts{
					Arch: arch, Fallback: allowFallback, Search: allowSearch, Forwarded: true,
				})
				if err == nil {
					s.met.fleetLookupFwd.Add(1)
					writeConfig(w, r, ConfigResponse{
						Key: res.Key, Config: res.Config, Perf: res.Perf, Version: res.Version,
						Source: res.Source, CapDistance: res.CapDistance,
					})
					return
				}
				if r.Context().Err() != nil {
					errorJSON(w, http.StatusServiceUnavailable, "lookup cancelled: %v", r.Context().Err())
					return
				}
			}
		}
	}

	if e, ok := s.st.Get(key); ok {
		s.met.hits.Add(1)
		writeConfig(w, r, ConfigResponse{
			Key: e.Key, Config: e.Cfg, Perf: e.Perf, Version: e.Version, Source: "exact",
		})
		return
	}
	if allowFallback {
		if e, dist, ok := s.st.GetNearest(key); ok {
			s.met.fallbacks.Add(1)
			writeConfig(w, r, ConfigResponse{
				Key: e.Key, Config: e.Cfg, Perf: e.Perf, Version: e.Version,
				Source: "fallback", CapDistance: dist,
			})
			return
		}
	}
	// Total miss: optionally search server-side.
	arch := q.Get("arch")
	if allowSearch && s.budget > 0 && arch != "" {
		if err := s.searchOnce(r.Context(), SearchRequest{
			App: key.App, Workload: key.Workload, Arch: arch, CapW: key.CapW, MaxEvals: s.budget,
		}); err != nil {
			switch {
			case errors.Is(err, errSearchShed):
				// Load shedding, not failure: tell the client when to come
				// back instead of queueing it.
				w.Header().Set("Retry-After", "1")
				errorJSON(w, http.StatusTooManyRequests, "server busy: %v", err)
			case errors.Is(err, errSearchTimeout) || errors.Is(err, context.DeadlineExceeded):
				s.met.searchErrors.Add(1)
				errorJSON(w, http.StatusGatewayTimeout, "server-side search: %v", err)
			default:
				s.met.searchErrors.Add(1)
				errorJSON(w, http.StatusBadGateway, "server-side search: %v", err)
			}
			return
		}
		if e, ok := s.st.Get(key); ok {
			writeConfig(w, r, ConfigResponse{
				Key: e.Key, Config: e.Cfg, Perf: e.Perf, Version: e.Version, Source: "searched",
			})
			return
		}
		// The search ran but this region never executed (wrong region
		// name, or app has fewer regions): an honest miss.
	}
	s.met.misses.Add(1)
	errorJSON(w, http.StatusNotFound, "no configuration for %v", key)
}

// NeighborResponse is one GET /v1/neighbors record: a stored entry from
// a neighbouring tuned context plus its transfer distance.
type NeighborResponse struct {
	Key     arcs.HistoryKey   `json:"key"`
	Config  arcs.ConfigValues `json:"config"`
	Perf    float64           `json:"perf"`
	Version uint64            `json:"version"`
	Dist    float64           `json:"dist"`
}

// handleNeighbors serves the neighbour scan behind surrogate transfer
// seeding: the stored contexts nearest to the queried key (same app and
// region; nearby caps first, cross-workload entries after), closest
// first. Always JSON — the payload is a handful of records per search
// startup, not a hot path. An empty scan answers 200 with an empty array
// (a context with no neighbours is a normal cold start, not an error).
func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	key := arcs.HistoryKey{
		App:      q.Get("app"),
		Workload: q.Get("workload"),
		Region:   q.Get("region"),
	}
	if key.App == "" || key.Region == "" {
		errorJSON(w, http.StatusBadRequest, "app and region are required")
		return
	}
	if capStr := q.Get("cap"); capStr != "" {
		capW, err := strconv.ParseFloat(capStr, 64)
		if err != nil || math.IsNaN(capW) || math.IsInf(capW, 0) {
			errorJSON(w, http.StatusBadRequest, "bad cap %q", capStr)
			return
		}
		key.CapW = capW
	}
	max := arcs.DefaultTransferSeeds
	if maxStr := q.Get("max"); maxStr != "" {
		m, err := strconv.Atoi(maxStr)
		if err != nil || m < 1 || m > 256 {
			errorJSON(w, http.StatusBadRequest, "max must be in [1,256]")
			return
		}
		max = m
	}
	ns := s.st.Neighbors(key, max)
	out := make([]NeighborResponse, len(ns))
	for i, n := range ns {
		out[i] = NeighborResponse{
			Key: n.Entry.Key, Config: n.Entry.Cfg, Perf: n.Entry.Perf,
			Version: n.Entry.Version, Dist: n.Dist,
		}
	}
	s.met.neighborsServed.Add(uint64(len(out)))
	writeJSON(w, http.StatusOK, out)
}

// searchOnce runs the bounded server-side search for an app-level context
// with single-flight deduplication: concurrent misses on the same
// app/workload/arch/cap share one search (which covers every region of
// the app, so region-granular callers collapse too). Starting a new
// search requires an admission slot — when all slots are busy the miss
// is shed with errSearchShed (429 upstream) instead of queueing; joining
// an existing flight is always free.
func (s *Server) searchOnce(ctx context.Context, req SearchRequest) error {
	key := fmt.Sprintf("%s|%s|%s|%g", req.App, req.Workload, req.Arch, req.CapW)
	s.sfMu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.sfMu.Unlock()
		s.met.searchDeduped.Add(1)
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.searchSem != nil {
		select {
		case s.searchSem <- struct{}{}:
		default:
			s.sfMu.Unlock()
			s.met.searchShed.Add(1)
			return fmt.Errorf("%w (%d in flight)", errSearchShed, cap(s.searchSem))
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.sfMu.Unlock()

	results, err := s.runSearch(ctx, req)
	if err == nil {
		s.met.searches.Add(1)
		for _, res := range results {
			s.st.Save(arcs.HistoryKey{
				App: req.App, Workload: req.Workload, CapW: res.CapW, Region: res.Region,
			}, res.Cfg, res.Perf)
		}
	}
	f.err = err
	close(f.done)
	s.sfMu.Lock()
	delete(s.inflight, key)
	s.sfMu.Unlock()
	return err
}

// runSearch executes one search with panic containment and the
// configured deadline. The searcher runs in its own goroutine, detached
// from the first caller's context (the result benefits every waiter and
// the store, so one impatient client must not cancel it for the rest)
// but bounded by SearchTimeout. A searcher that ignores its context is
// abandoned at the deadline; its goroutine keeps its admission slot
// until it actually returns, so a wedged backend saturates the bounded
// semaphore — surfacing as 429s — rather than growing goroutines without
// limit. A panicking searcher is converted into an error plus the
// arcsd_search_panics_total metric instead of killing the daemon.
func (s *Server) runSearch(ctx context.Context, req SearchRequest) ([]SearchResult, error) {
	sctx := context.WithoutCancel(ctx)
	cancel := context.CancelFunc(func() {})
	if s.searchTimeout > 0 {
		sctx, cancel = context.WithTimeout(sctx, s.searchTimeout)
	}
	type outcome struct {
		results []SearchResult
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			cancel()
			if s.searchSem != nil {
				<-s.searchSem
			}
			if r := recover(); r != nil {
				s.met.searchPanics.Add(1)
				ch <- outcome{err: fmt.Errorf("server: searcher panicked: %v", r)}
			}
		}()
		results, err := s.searcher.Search(sctx, req)
		ch <- outcome{results: results, err: err}
	}()
	if s.searchTimeout > 0 {
		timer := time.NewTimer(s.searchTimeout + 100*time.Millisecond)
		defer timer.Stop()
		select {
		case o := <-ch:
			return o.results, o.err
		case <-timer.C:
			return nil, fmt.Errorf("%w (%v; searcher ignored its context)", errSearchTimeout, s.searchTimeout)
		}
	}
	o := <-ch
	return o.results, o.err
}

// handleReport serves /v1/reports: one record or many, acknowledged
// with the saved count and the store size.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	saved, ok := s.ingestReports(w, r)
	if !ok {
		return
	}
	s.met.reported.Add(uint64(saved))
	s.writeAck(w, r, saved)
}

// ingestReports parses one report body — a binary report-batch frame, a
// JSON array, or a single JSON object — validates each record
// and applies the batch: standalone servers Save locally; fleet members
// route through fleet.Ingest (local save + replication for owned keys,
// owner forwarding for the rest; a forwarded request is always applied
// locally). On failure it writes the error response (corrupt binary
// input is a 400, never a panic) and returns ok=false; records
// validated before a mid-batch failure are still applied.
func (s *Server) ingestReports(w http.ResponseWriter, r *http.Request) (saved int, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "read report body: %v", err)
		return 0, false
	}
	var valid []codec.Report
	collect := func(key arcs.HistoryKey, cfg arcs.ConfigValues, perf float64) error {
		if key.App == "" || key.Region == "" {
			return fmt.Errorf("report %d: app and region are required", len(valid))
		}
		if math.IsNaN(perf) || math.IsInf(perf, 0) {
			return fmt.Errorf("report %d: non-finite perf", len(valid))
		}
		valid = append(valid, codec.Report{Key: key, Cfg: cfg, Perf: perf})
		return nil
	}
	var badInput error
	if binaryBody(r) {
		kind, payload, _, err := codec.Frame(body)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "bad binary report body: %v", err)
			return 0, false
		}
		if kind != codec.KindReportBatch {
			errorJSON(w, http.StatusBadRequest, "unexpected frame kind %#x", kind)
			return 0, false
		}
		dec := binDecPool.Get().(*codec.Decoder)
		defer binDecPool.Put(dec)
		if err := dec.DecodeReportBatch(payload, func(rep *codec.Report) error {
			return collect(rep.Key, rep.Cfg, rep.Perf)
		}); err != nil {
			badInput = fmt.Errorf("bad binary report batch: %v", err)
		}
	} else {
		var reports []ReportRequest
		if err := json.Unmarshal(body, &reports); err != nil {
			// One-shot clients may post a single object instead of an array.
			var one ReportRequest
			if err2 := json.Unmarshal(body, &one); err2 != nil {
				errorJSON(w, http.StatusBadRequest, "bad report body: %v", err)
				return 0, false
			}
			reports = []ReportRequest{one}
		}
		for _, rep := range reports {
			if badInput = collect(rep.Key, rep.Cfg, rep.Perf); badInput != nil {
				break
			}
		}
	}
	saved = s.applyReports(r, valid)
	if badInput != nil {
		errorJSON(w, http.StatusBadRequest, "%v", badInput)
		return saved, false
	}
	return saved, true
}

// applyReports lands a validated batch: via the fleet when configured,
// plain Saves otherwise.
func (s *Server) applyReports(r *http.Request, reports []codec.Report) int {
	if len(reports) == 0 {
		return 0
	}
	if s.fleet != nil {
		forwarded := r.Header.Get(codec.ForwardedHeader) != ""
		return s.fleet.Ingest(r.Context(), reports, forwarded)
	}
	for _, rep := range reports {
		s.st.Save(rep.Key, rep.Cfg, rep.Perf)
	}
	return len(reports)
}

// handleDigest serves the per-shard anti-entropy summary (fleet peers'
// sweep traffic, and a cheap standalone divergence probe). Registered
// unconditionally: a digest of the local store needs no fleet.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil || shard < 0 || shard >= store.NumShards {
		errorJSON(w, http.StatusBadRequest, "shard must be in [0,%d)", store.NumShards)
		return
	}
	d := fleet.BuildDigest(s.st, shard)
	bb := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(bb)
	bb.buf = bb.enc.AppendDigest(bb.buf[:0], &d)
	writeFrame(w, http.StatusOK, bb.buf)
}

// handleMerge ingests intra-fleet replication: already-versioned
// entries applied under store.Supersedes, never re-replicated (the
// authoring owner fans out itself). The body is a concatenation of
// KindEntry frames — the WAL record format. Works standalone too
// (direct store merges, restore tooling).
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !requireFrameBody(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "read merge body: %v", err)
		return
	}
	var entries []store.Entry
	dec := binDecPool.Get().(*codec.Decoder)
	defer binDecPool.Put(dec)
	for pos := 0; pos < len(body); {
		kind, payload, n, err := codec.Frame(body[pos:])
		if err != nil || kind != codec.KindEntry {
			errorJSON(w, http.StatusBadRequest, "bad merge frame at offset %d: %v", pos, err)
			return
		}
		var ce codec.Entry
		if err := dec.DecodeEntry(payload, &ce); err != nil {
			errorJSON(w, http.StatusBadRequest, "bad merge entry at offset %d: %v", pos, err)
			return
		}
		entries = append(entries, store.Entry(ce))
		pos += n
	}
	for i := range entries {
		if entries[i].Key.App == "" || entries[i].Key.Region == "" {
			errorJSON(w, http.StatusBadRequest, "merge entry %d: app and region are required", i)
			return
		}
		if math.IsNaN(entries[i].Perf) || math.IsInf(entries[i].Perf, 0) {
			errorJSON(w, http.StatusBadRequest, "merge entry %d: non-finite perf", i)
			return
		}
	}
	var merged int
	if s.fleet != nil {
		merged = s.fleet.MergeLocal(entries)
	} else {
		for _, e := range entries {
			if s.st.Merge(e) {
				merged++
			}
		}
	}
	s.met.merged.Add(uint64(merged))
	s.writeAck(w, r, merged)
}

// handleDump streams the entry set as a JSON array, one element per
// entry, instead of materialising one marshalled blob of the whole
// store, whose size scaled with the store and stalled the handler while
// it built.
func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	entries := s.st.Entries()
	bw := bufio.NewWriterSize(w, 32<<10)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = bw.WriteByte('[')
	enc := json.NewEncoder(bw)
	for i := range entries {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		if err := enc.Encode(entries[i]); err != nil {
			return // client went away mid-stream
		}
	}
	_ = bw.WriteByte(']')
	_ = bw.Flush()
}

// HealthResponse is the GET /healthz payload. The endpoint always
// returns 200 — a degraded store still serves lookups, and liveness
// probes keyed on the status code must not restart a daemon that is
// degraded but useful. status distinguishes "ok" from "degraded"; the
// store fields mirror store.Health.
type HealthResponse struct {
	Status        string       `json:"status"` // "ok" or "degraded"
	Entries       int          `json:"entries"`
	WALBytes      int64        `json:"wal_bytes"`
	SnapshotBytes int64        `json:"snapshot_bytes"`
	WALRecords    int          `json:"wal_records"`
	DroppedSaves  uint64       `json:"dropped_saves,omitempty"`
	StoreError    string       `json:"store_error,omitempty"`
	DegradedCause string       `json:"degraded_cause,omitempty"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Fleet         *FleetHealth `json:"fleet,omitempty"`
}

// FleetHealth is the fleet section of /healthz: identity, membership,
// and the live replication counters, so an operator can see from any
// one node whether replication and anti-entropy are keeping up.
type FleetHealth struct {
	Self       string   `json:"self"`
	Epoch      uint64   `json:"epoch"`
	Nodes      []string `json:"nodes"`
	Replicas   int      `json:"replicas"`
	OwnedShare float64  `json:"owned_share"`
	// Peers maps each peer to its failure-detector state ("alive",
	// "suspect" or "dead").
	Peers map[string]string `json:"peers,omitempty"`
	Stats fleet.Stats       `json:"stats"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.st.Health()
	status := "ok"
	if h.Degraded {
		status = "degraded"
	}
	resp := HealthResponse{
		Status:        status,
		Entries:       h.Entries,
		WALBytes:      h.WALBytes,
		SnapshotBytes: h.SnapshotBytes,
		WALRecords:    h.WALRecords,
		DroppedSaves:  h.DroppedSaves,
		StoreError:    h.LastErr,
		DegradedCause: h.DegradedCause,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.fleet != nil {
		v := s.fleet.View()
		resp.Fleet = &FleetHealth{
			Self:       s.fleet.Self(),
			Epoch:      v.Epoch(),
			Nodes:      v.Membership().Nodes,
			Replicas:   v.Replicas(),
			OwnedShare: v.OwnedShare(s.fleet.Self()),
			Peers:      s.fleet.Detector().States(),
			Stats:      s.fleet.Stats(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var fl *fleetMetrics
	if s.fleet != nil {
		v := s.fleet.View()
		fl = &fleetMetrics{
			stats:      s.fleet.Stats(),
			nodes:      len(v.Membership().Nodes),
			replicas:   v.Replicas(),
			ownedShare: v.OwnedShare(s.fleet.Self()),
		}
	}
	s.met.write(w, s.st.Health(), s.evc.Stats(), fl)
}

// instrument wraps a handler with request counting, latency tracking,
// and panic recovery: a panicking handler becomes a 500 plus the
// arcsd_handler_panics_total metric, never a dead daemon.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if s.fleet != nil {
			// Every response advertises the membership epoch, so clients
			// notice a join/leave from ordinary traffic and refresh their
			// ring view without polling. Stamped at first write, not here:
			// a join/leave handler bumps the epoch mid-request and must
			// advertise the epoch it produced, not the one it started on.
			sw.beforeWrite = func() {
				sw.Header().Set(codec.EpochHeader, strconv.FormatUint(s.fleet.View().Epoch(), 10))
			}
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					s.met.handlerPanics.Add(1)
					if !sw.wrote {
						errorJSON(sw, http.StatusInternalServerError, "internal panic: %v", rec)
					}
				}
			}()
			h(sw, r)
		}()
		s.met.observe(endpoint, sw.code, time.Since(start).Seconds())
	}
}

type statusWriter struct {
	http.ResponseWriter
	code        int
	wrote       bool
	beforeWrite func() // runs once, before the first header/body write
}

func (w *statusWriter) start() {
	if !w.wrote && w.beforeWrite != nil {
		w.beforeWrite()
	}
	w.wrote = true
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.start()
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.start()
	return w.ResponseWriter.Write(p)
}
