package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
	"arcs/internal/storeclient"
)

// The lookup and ingest workloads share one system: a 3-node fleet
// (replicas 2) preloaded with a synthetic knowledge store of
// app/workload/region contexts at eight power caps each.

const (
	fleetNodes     = 3
	fullContexts   = 2048 // at -scale 1; 8 caps each gives 16,384 entries
	preloadBatch   = 512  // records per /v1/reports batch while preloading
	zipfS          = 1.1  // context popularity skew for lookups
	nearestShare   = 0.10 // lookups that ask between two stored caps
	ingestBatch    = 32   // records per report batch
	ingestReads    = 3    // read-your-writes lookups after each batch
	lookupWarmUp   = 5000 // lookups per client before measuring, at -scale 1
	ingestWarmUp   = 100  // iterations per client before measuring, at -scale 1
	lookupClients  = 2
	nearestOffsetW = 2.5
)

// capsW are the stored caps of every context.
var capsW = []float64{50, 55, 60, 65, 70, 75, 80, 85}

// keySpace is the seeded preload: entries[i] is context i/len(capsW) at
// cap capsW[i%len(capsW)]. Lookups pick context i with zipf popularity
// rank i. The ranking is the same for every seed: with a seeded ranking,
// whether the few most popular keys happen to live on the client's own
// node moved the forwarded share, and so throughput, by several percent
// from seed to seed.
type keySpace struct {
	entries []storeclient.Report
	index   map[arcs.HistoryKey]int
}

var (
	tableIThreads   = []int{2, 4, 8, 16, 24, 32, 0}
	tableISchedules = []ompt.ScheduleKind{ompt.ScheduleDynamic, ompt.ScheduleStatic, ompt.ScheduleGuided, ompt.ScheduleDefault}
	tableIChunks    = []int{1, 8, 16, 32, 64, 128, 256, 512, 0}
)

func randomConfig(r *rand.Rand) arcs.ConfigValues {
	return arcs.ConfigValues{
		Threads:  tableIThreads[r.Intn(len(tableIThreads))],
		Schedule: tableISchedules[r.Intn(len(tableISchedules))],
		Chunk:    tableIChunks[r.Intn(len(tableIChunks))],
	}
}

func newKeySpace(seed int64, contexts int) *keySpace {
	r := rand.New(rand.NewSource(seed))
	ks := &keySpace{index: make(map[arcs.HistoryKey]int, contexts*len(capsW))}
	for c := 0; c < contexts; c++ {
		app, wl, region := fmt.Sprintf("app%02d", c/256), fmt.Sprintf("W%d", c/16%16), fmt.Sprintf("region_%02d", c%16)
		for _, capW := range capsW {
			k := arcs.HistoryKey{App: app, Workload: wl, CapW: capW, Region: region}
			ks.index[k] = len(ks.entries)
			ks.entries = append(ks.entries, storeclient.Report{Key: k, Cfg: randomConfig(r), Perf: 0.01 + r.Float64()})
		}
	}
	return ks
}

// servingWorkload prepares the inputs of lookup or ingest.
type servingWorkload struct {
	cfg    config
	ingest bool
	ks     *keySpace
}

// servingSystem is the running fleet plus the two pinned clients.
type servingSystem struct {
	w       *servingWorkload
	tr      *tracer
	c       *cluster
	clients []*storeclient.Client
	tps     []*http.Transport
	rngs    []*rand.Rand
	zipfs   []*rand.Zipf
	best    []storeclient.Report // ingest: each key's current best, as its one writer knows it
}

func (w *servingWorkload) start(tr *tracer) (system, error) {
	c, err := startCluster(nodeSpec{n: fleetNodes, algo: arcs.AlgoAuto, dir: w.cfg.workDir, tr: tr})
	if err != nil {
		return nil, err
	}
	s := &servingSystem{w: w, tr: tr, c: c}
	if w.ingest {
		s.best = append([]storeclient.Report(nil), w.ks.entries...)
	}
	for i := 0; i < lookupClients; i++ {
		cl, tp := newClient(c.nodes[i].url, tr)
		r := rand.New(rand.NewSource(w.cfg.seed*7919 + int64(i)))
		s.clients, s.tps, s.rngs = append(s.clients, cl), append(s.tps, tp), append(s.rngs, r)
		s.zipfs = append(s.zipfs, rand.NewZipf(r, zipfS, 1, uint64(len(w.ks.entries)/len(capsW)-1)))
	}
	ctx := context.Background()
	for i := 0; i < len(w.ks.entries); i += preloadBatch {
		if err := s.clients[0].ReportBatch(ctx, w.ks.entries[i:min(i+preloadBatch, len(w.ks.entries))]); err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	warm := lookupWarmUp
	if w.ingest {
		warm = ingestWarmUp
	}
	warm = max(1, int(float64(warm)*w.cfg.scale))
	var wp pass
	s.measure(ctx, stopRule{ops: warm}, &wp)
	if err := wp.err(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *servingSystem) measure(ctx context.Context, stop stopRule, p *pass) {
	closedLoop(lookupClients, stop, p, func(ci int) (time.Duration, error) { return s.op(ctx, ci) })
}

func (s *servingSystem) op(ctx context.Context, ci int) (time.Duration, error) {
	if s.w.ingest {
		return s.ingestOp(ctx, ci)
	}
	return s.lookupOp(ctx, ci)
}

// lookupOp is one warm-path lookup: 90% exact, 10% at a cap between two
// stored ones, which the owner answers from its nearest-cap scan.
func (s *servingSystem) lookupOp(ctx context.Context, ci int) (time.Duration, error) {
	r := s.rngs[ci]
	ctxIdx := int(s.zipfs[ci].Uint64())
	want := s.w.ks.entries[ctxIdx*len(capsW)+r.Intn(len(capsW))]
	nearest := r.Float64() < nearestShare
	key, opts := want.Key, storeclient.LookupOpts{}
	if nearest {
		key.CapW += nearestOffsetW
		opts.Fallback = true
	}
	sp := s.tr.begin("op.lookup", nil)
	t0 := time.Now()
	res, err := s.clients[ci].Lookup(withSpan(ctx, sp), key, opts)
	lat := time.Since(t0)
	s.tr.end(sp, 0)
	if err != nil {
		return lat, err
	}
	if !nearest {
		return lat, checkExact(res, want)
	}
	// The answer must be the stored record of the same context at the
	// reported cap distance. Its key is not checked against that record:
	// a node that proxies the lookup to the key's owner answers with the
	// queried key, where one that owns the key answers with the stored one.
	if res.Source == "fallback" {
		for _, capW := range []float64{key.CapW - res.CapDistance, key.CapW + res.CapDistance} {
			k := key
			k.CapW = capW
			if i, ok := s.w.ks.index[k]; ok && (res.Key == key || res.Key == k) &&
				res.Config == s.w.ks.entries[i].Cfg && res.Perf == s.w.ks.entries[i].Perf {
				return lat, nil
			}
		}
	}
	return lat, fmt.Errorf("nearest lookup %v answered %s %v (%v, %g) at distance %g, which is no stored record of the context",
		key, res.Source, res.Key, res.Config, res.Perf, res.CapDistance)
}

// checkExact compares an exact answer with the record it must equal.
func checkExact(res storeclient.Result, want storeclient.Report) error {
	if res.Source != "exact" || res.Key != want.Key || res.Config != want.Cfg || res.Perf != want.Perf {
		return fmt.Errorf("lookup %v answered %s %v (%v, %g), want (%v, %g)", want.Key, res.Source, res.Key, res.Config, res.Perf, want.Cfg, want.Perf)
	}
	return nil
}

// ingestOp is one report batch of distinct keys from the client's own
// half of the key space (so it is each key's only writer and knows its
// history), half improving the key's best and half rejected by
// keep-best, then read-your-writes lookups of keys from the batch.
func (s *servingSystem) ingestOp(ctx context.Context, ci int) (time.Duration, error) {
	r := s.rngs[ci]
	half := len(s.best) / lookupClients
	batch := make([]storeclient.Report, 0, ingestBatch)
	idx := make([]int, 0, ingestBatch)
	seen := make(map[int]bool, ingestBatch)
	for len(batch) < ingestBatch {
		k := r.Intn(half)*lookupClients + ci
		if seen[k] {
			continue
		}
		seen[k] = true
		rep := s.best[k]
		rep.Cfg = randomConfig(r)
		if len(batch)%2 == 0 {
			rep.Perf *= 0.999
			s.best[k] = rep
		} else {
			rep.Perf *= 1.01
		}
		batch, idx = append(batch, rep), append(idx, k)
	}
	sp := s.tr.begin("op.ingest", nil)
	sctx := withSpan(ctx, sp)
	t0 := time.Now()
	err := s.clients[ci].ReportBatch(sctx, batch)
	var reads [ingestReads]storeclient.Result
	var want [ingestReads]storeclient.Report
	for i := 0; err == nil && i < ingestReads; i++ {
		want[i] = s.best[idx[r.Intn(len(idx))]]
		reads[i], err = s.clients[ci].Lookup(sctx, want[i].Key, storeclient.LookupOpts{})
	}
	lat := time.Since(t0)
	s.tr.end(sp, 0)
	if err != nil {
		return lat, err
	}
	for i := range reads {
		if err := checkExact(reads[i], want[i]); err != nil {
			return lat, fmt.Errorf("read-your-writes: %w", err)
		}
	}
	return lat, nil
}

func (s *servingSystem) counters() map[string]float64 {
	return map[string]float64{"fleet.replicated": float64(s.c.replicated())}
}

func (s *servingSystem) close() error {
	err := s.c.close()
	for _, tp := range s.tps {
		tp.CloseIdleConnections()
	}
	return err
}
