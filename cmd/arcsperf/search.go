package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"arcs/internal/cli"
	arcs "arcs/internal/core"
	"arcs/internal/ompt"
	"arcs/internal/server"
	"arcs/internal/storeclient"
)

// The search workload asks a fresh standalone node, round after round,
// for every Crill context below with search on and fallback off, so each
// lookup is a server-side search. Crill only: HistoryKey has no arch
// field, so a second arch would collide with the first in the store.
var (
	searchApps = []struct{ app, workload string }{
		{"SP", "B"}, {"SP", "C"}, {"BT", "B"}, {"BT", "C"}, {"LULESH", "45"}, {"LULESH", "60"},
	}
	searchArch = "crill"
)

func searchCaps() []float64 {
	var caps []float64
	for c := 50.0; c <= 115; c += 5 {
		caps = append(caps, c)
	}
	return caps
}

// searchContext is one app/workload at one cap.
type searchContext struct {
	app, workload string
	capW          float64
	regions       []string
}

type searchWorkload struct {
	cfg      config
	contexts []searchContext
	ledger   *searchLedger
}

func newSearchWorkload(cfg config) (*searchWorkload, error) {
	w := &searchWorkload{cfg: cfg, ledger: &searchLedger{defaults: make(map[arcs.HistoryKey]float64)}}
	arch, err := cli.BuildArch(searchArch)
	if err != nil {
		return nil, err
	}
	// One point: the default configuration. Probing it is benchmark-only
	// work, so it happens here, outside the timed set-up.
	defaultSpace := arcs.SearchSpace{Threads: []int{0}, Schedules: []ompt.ScheduleKind{ompt.ScheduleDefault}, Chunks: []int{0}}
	for _, a := range searchApps {
		app, err := cli.BuildApp(a.app, a.workload)
		if err != nil {
			return nil, err
		}
		var names []string
		var models []arcs.RegionModel
		for _, r := range app.Regions {
			names = append(names, r.Name)
			models = append(models, arcs.RegionModel{Name: r.Name, Model: r.Model})
		}
		for _, capW := range searchCaps() {
			w.contexts = append(w.contexts, searchContext{app: app.Name, workload: app.Workload, capW: capW, regions: names})
			res, err := arcs.BatchSearch(context.Background(), arch, models, arcs.BatchSearchOptions{
				Space: defaultSpace, Algo: arcs.AlgoExhaustive, CapW: capW, Parallelism: 1,
			})
			if err != nil {
				return nil, fmt.Errorf("default perf of %s.%s at %gW: %w", a.app, a.workload, capW, err)
			}
			for _, r := range res {
				w.ledger.defaults[arcs.HistoryKey{App: app.Name, Workload: app.Workload, CapW: r.CapW, Region: r.Region}] = r.Perf
			}
		}
	}
	return w, nil
}

// searchSystem is the current round's node and the one client.
type searchSystem struct {
	w      *searchWorkload
	tr     *tracer
	ledger *searchLedger // nil in untraced runs: arcsd's own searcher
	c      *cluster
	client *storeclient.Client
	tp     *http.Transport
	round  int
	pos    int
	order  []int
	rng    *rand.Rand
}

func (w *searchWorkload) start(tr *tracer) (system, error) {
	s := &searchSystem{w: w, tr: tr, rng: rand.New(rand.NewSource(w.cfg.seed))}
	if tr != nil {
		s.ledger = w.ledger
	}
	s.order = s.roundOrder()
	if err := s.startNode(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// roundOrder is the order the current round asks in: first one cap of
// each app/workload, which searches cold, then the other contexts in a
// seeded order, transfer-seeded from what the round has stored so far.
// The cold cap moves on by one each round, so over a run every cap is
// searched cold about equally often; with a seeded cold cap, which caps
// happened to come first moved p99 by 10% from seed to seed.
func (s *searchSystem) roundOrder() []int {
	r := rand.New(rand.NewSource(s.w.cfg.seed + int64(s.round)*1_000_003))
	caps := len(searchCaps())
	cold := (s.round + int(s.w.cfg.seed)) % caps
	order := make([]int, 0, len(s.w.contexts))
	for _, a := range r.Perm(len(searchApps)) {
		order = append(order, a*caps+cold)
	}
	for _, i := range r.Perm(len(s.w.contexts)) {
		if i%caps != cold {
			order = append(order, i)
		}
	}
	return order
}

// startNode brings up a fresh standalone node, as arcsd starts with an
// empty store, and waits until it answers.
func (s *searchSystem) startNode() error {
	c, err := startCluster(nodeSpec{n: 1, algo: arcs.AlgoSurrogate, dir: s.w.cfg.workDir, tr: s.tr, search: s.ledger})
	if err != nil {
		return err
	}
	s.c = c
	s.client, s.tp = newClient(c.nodes[0].url, s.tr)
	return s.client.Health(context.Background())
}

// measure ends on a round boundary, so the node left up holds a whole
// round's store and cache when heap_mb is read. A finished round is
// replaced by a new node, timed as set-up, and a new order.
func (s *searchSystem) measure(ctx context.Context, stop stopRule, p *pass) {
	t0 := time.Now()
	for i := 0; !stop.done(i) || s.pos < len(s.order); i++ {
		if s.pos == len(s.order) {
			p.heaps = append(p.heaps, liveHeapMiB())
			if err := s.closeNode(); err != nil {
				p.add(0, err)
				break
			}
			s.round++
			s.pos = 0
			s.order = s.roundOrder()
			st := time.Now()
			if err := s.startNode(); err != nil {
				p.add(0, err)
				break
			}
			p.setups = append(p.setups, time.Since(st).Seconds())
		}
		p.add(s.op(ctx))
	}
	p.wall += time.Since(t0)
	p.heaps = append(p.heaps, liveHeapMiB())
}

// op asks for the next context of the round in its seeded order.
func (s *searchSystem) op(ctx context.Context) (time.Duration, error) {
	sc := s.w.contexts[s.order[s.pos]]
	s.pos++
	key := arcs.HistoryKey{App: sc.app, Workload: sc.workload, CapW: sc.capW, Region: sc.regions[s.rng.Intn(len(sc.regions))]}
	sp := s.tr.begin("op.search", nil)
	t0 := time.Now()
	res, err := s.client.Lookup(withSpan(ctx, sp), key, storeclient.LookupOpts{Arch: searchArch, Search: true})
	lat := time.Since(t0)
	s.tr.end(sp, 0)
	if err != nil {
		return lat, err
	}
	if res.Source != "searched" || res.Key != key || !(res.Perf > 0) || math.IsInf(res.Perf, 0) {
		return lat, fmt.Errorf("search %v answered %s %v perf %g, want a fresh search result for the key", key, res.Source, res.Key, res.Perf)
	}
	return lat, nil
}

func (s *searchSystem) counters() map[string]float64 {
	if s.ledger == nil {
		return nil
	}
	return s.ledger.counters()
}

func (s *searchSystem) closeNode() error {
	if s.c == nil {
		return nil
	}
	err := s.c.close()
	s.c = nil
	if s.tp != nil {
		s.tp.CloseIdleConnections()
	}
	return err
}

func (s *searchSystem) close() error { return s.closeNode() }

// tracedSearcher is the server's Searcher in traced runs: arcsd's
// SimSearcher, with its neighbour scans and probe counts observed from
// outside.
type tracedSearcher struct {
	t      *tracer
	ledger *searchLedger
	inner  server.SimSearcher
	scan   func(k arcs.HistoryKey, max int) []arcs.Neighbor
}

func (s *tracedSearcher) Search(ctx context.Context, req server.SearchRequest) ([]server.SearchResult, error) {
	sp := s.t.begin("search.run", spanFrom(ctx))
	parent := refOf(sp)
	var scans atomic.Int64 // regions search concurrently
	inner := s.inner
	inner.Neighbors = func(k arcs.HistoryKey, max int) []arcs.Neighbor {
		ns := s.t.begin("search.neighbors", parent)
		out := s.scan(k, max)
		s.t.end(ns, 0)
		scans.Add(1)
		return out
	}
	before := inner.Cache.Stats()
	res, err := inner.Search(ctx, req)
	after := inner.Cache.Stats()
	s.t.end(sp, 0)
	if err == nil {
		s.ledger.record(req, res, after.Misses-before.Misses, after.Hits-before.Hits, scans.Load())
	}
	return res, err
}

// searchLedger accumulates what the traced searcher observed.
type searchLedger struct {
	defaults map[arcs.HistoryKey]float64 // default-configuration perf; read-only after set-up

	mu       sync.Mutex
	searches float64 // guarded by mu
	probes   float64 // guarded by mu
	hits     float64 // guarded by mu
	scans    float64 // guarded by mu
	logRatio float64 // guarded by mu
	ratios   float64 // guarded by mu
}

func (l *searchLedger) record(req server.SearchRequest, res []server.SearchResult, probes, hits uint64, scans int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.searches++
	l.probes += float64(probes)
	l.hits += float64(hits)
	l.scans += float64(scans)
	for _, r := range res {
		if d := l.defaults[arcs.HistoryKey{App: req.App, Workload: req.Workload, CapW: r.CapW, Region: r.Region}]; d > 0 {
			l.logRatio += math.Log(r.Perf / d)
			l.ratios++
		}
	}
}

func (l *searchLedger) counters() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return map[string]float64{
		"search.searches": l.searches, "search.probes": l.probes, "search.hits": l.hits,
		"search.scans": l.scans, "search.log_ratio": l.logRatio, "search.ratios": l.ratios,
	}
}
