// Command arcsd is the ARCS tuning service: a daemon serving
// best-configuration lookups from a persistent, versioned knowledge store
// (internal/store) over HTTP (internal/server).
//
// The paper's history file lets "later executions use the saved values
// instead of repeating the search process" within one machine; arcsd
// turns that into shared infrastructure — every arcsrun (-server) in a
// cluster reads and feeds one store, exact misses fall back to the
// nearest power cap, and a total miss can trigger one (deduplicated)
// bounded search on the server's simulator.
//
// Usage:
//
//	arcsd -addr :8090 -store /var/lib/arcsd -snapshot-every 1024 -search-budget 40
//	arcsrun -app SP -workload B -cap 70 -strategy online -server http://localhost:8090
//
// With -peers, N daemons form one replicated fleet (internal/fleet):
// each key has a deterministic primary plus replicas on a consistent-
// hash ring, reports are routed to their owners, and a periodic
// anti-entropy sweep repairs whatever replication missed. Every member
// is started with the same full membership list:
//
//	arcsd -addr :8091 -store s1 -peers http://h1:8091,http://h2:8091,http://h3:8091 -advertise http://h1:8091
//
// Membership is live after startup. A new node joins a running fleet
// without restarting anyone — it asks an existing member to admit it,
// adopts the membership that results, and bootstraps the key ranges it
// now owns over /v1/transfer:
//
//	arcsd -addr :8094 -store s4 -join http://h1:8091 -advertise http://h4:8094
//
// The symmetric path is decommissioning: POST /v1/leave to the
// departing node makes it propagate the shrunk membership and drain
// its entries to the new owners before it is retired. Heartbeats (with
// seeded jitter, so members never probe in lockstep) feed a
// suspect/dead failure detector visible on /healthz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

func main() {
	var cfg daemonCfg
	flag.StringVar(&cfg.addr, "addr", ":8090", "listen address")
	flag.StringVar(&cfg.storeDir, "store", "arcsd-store", "knowledge store directory (created if missing)")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", store.DefaultSnapshotEvery,
		"WAL records between compacted snapshots (negative disables)")
	flag.IntVar(&cfg.searchBudget, "search-budget", 40,
		"max evaluations per region for server-side searches on total misses (0 disables)")
	flag.IntVar(&cfg.searchParallelism, "search-parallelism", 0,
		"concurrent candidate probes per server-side search (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&cfg.maxSearches, "max-searches", server.DefaultMaxConcurrentSearches,
		"max concurrent server-side searches before requests are shed with 429 (negative = unbounded)")
	flag.DurationVar(&cfg.searchTimeout, "search-timeout", server.DefaultSearchTimeout,
		"deadline per server-side search (negative disables)")
	flag.StringVar(&cfg.searchAlgo, "search-algo", "auto",
		"algorithm for server-side searches: auto, nelder-mead, exhaustive, pro, random, coordinate-descent or surrogate (surrogate seeds from neighbouring stored contexts)")
	flag.StringVar(&cfg.peers, "peers", "",
		"comma-separated fleet membership (base URLs, including this node); empty = standalone")
	flag.StringVar(&cfg.join, "join", "",
		"comma-separated members of a running fleet to join through (mutually exclusive with -peers)")
	flag.StringVar(&cfg.advertise, "advertise", "",
		"this node's own base URL (required with -peers or -join)")
	flag.IntVar(&cfg.replicas, "replicas", fleet.DefaultReplicas,
		"owners per key, primary included (clamped to the fleet size)")
	flag.DurationVar(&cfg.antiEntropy, "anti-entropy", 10*time.Second,
		"interval between hinted-handoff drains and anti-entropy sweeps")
	flag.IntVar(&cfg.handoffMax, "handoff-max", fleet.DefaultHandoffMax,
		"max hints queued per unreachable peer before new ones are dropped")
	flag.Int64Var(&cfg.fleetSeed, "fleet-seed", 1,
		"seed for the sweep's peer-order shuffle and ticker jitter (determinism for tests)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 2*time.Second,
		"interval between liveness probes of the other members (0 disables)")
	flag.DurationVar(&cfg.suspectAfter, "suspect-after", fleet.DefaultSuspectAfter,
		"silence before the failure detector suspects a peer")
	flag.DurationVar(&cfg.deadAfter, "dead-after", fleet.DefaultDeadAfter,
		"silence before the failure detector declares a peer dead")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, log.Default(), nil); err != nil {
		fmt.Fprintln(os.Stderr, "arcsd:", err)
		os.Exit(1)
	}
}

// daemonCfg carries the parsed command line.
type daemonCfg struct {
	addr              string
	storeDir          string
	snapshotEvery     int
	searchBudget      int
	searchParallelism int
	maxSearches       int
	searchTimeout     time.Duration
	searchAlgo        string
	peers             string
	join              string
	advertise         string
	replicas          int
	antiEntropy       time.Duration
	handoffMax        int
	fleetSeed         int64
	heartbeat         time.Duration
	suspectAfter      time.Duration
	deadAfter         time.Duration
}

// peerRegistry hands out one shared breaker-guarded client per fleet
// member, creating clients on demand — which is what lets joins grow
// the member set while the daemon runs. The same
// client serves the fleet (replication RPCs) and the server (lookup
// proxying), so breaker state is shared too.
type peerRegistry struct {
	self string
	mu   sync.Mutex
	m    map[string]*storeclient.Client // guarded by mu
}

func newPeerRegistry(self string) *peerRegistry {
	return &peerRegistry{self: self, m: make(map[string]*storeclient.Client)}
}

// Client returns the shared client for one member name (nil for self or
// the empty name).
func (r *peerRegistry) Client(name string) *storeclient.Client {
	if name == "" || name == r.self {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.m[name]
	if c == nil {
		c = storeclient.New(name,
			storeclient.WithBreaker(5, 2*time.Second),
			storeclient.WithRetries(1),
		)
		r.m[name] = c
	}
	return c
}

// peer adapts Client to the fleet.Peer factory, avoiding the typed-nil
// interface trap for self.
func (r *peerRegistry) peer(name string) fleet.Peer {
	if c := r.Client(name); c != nil {
		return c
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildFleet assembles the fleet membership. With -peers the node
// starts from the static bootstrap list; with -join it asks an
// existing member to admit it and adopts the epoch that results (the
// serve loop then bootstraps its owned ranges once the listener is
// up). Returns nils when neither is set (standalone); joined reports
// which path ran.
func buildFleet(ctx context.Context, cfg daemonCfg, st *store.Store, logger *log.Logger) (fl *fleet.Fleet, reg *peerRegistry, joined bool, err error) {
	if cfg.peers == "" && cfg.join == "" {
		return nil, nil, false, nil
	}
	if cfg.peers != "" && cfg.join != "" {
		return nil, nil, false, fmt.Errorf("-peers and -join are mutually exclusive")
	}
	if cfg.advertise == "" {
		return nil, nil, false, fmt.Errorf("-peers/-join require -advertise (this node's own base URL)")
	}
	reg = newPeerRegistry(cfg.advertise)
	var nodes []string
	var epoch uint64
	if cfg.join != "" {
		var m codec.MemberList
		for _, seed := range splitList(cfg.join) {
			if m, err = reg.Client(seed).Join(ctx, cfg.advertise); err == nil {
				break
			}
			logger.Printf("join via %s: %v", seed, err)
		}
		if err != nil {
			return nil, nil, false, fmt.Errorf("join: no seed admitted us: %w", err)
		}
		nodes, epoch, joined = m.Nodes, m.Epoch, true
		logger.Printf("joined fleet at epoch %d: %v", epoch, nodes)
	} else {
		nodes = splitList(cfg.peers)
	}
	fl, err = fleet.New(fleet.Config{
		Self:         cfg.advertise,
		Nodes:        nodes,
		Epoch:        epoch,
		Replicas:     cfg.replicas,
		Store:        st,
		NewPeer:      reg.peer,
		Seed:         cfg.fleetSeed,
		HandoffMax:   cfg.handoffMax,
		SuspectAfter: cfg.suspectAfter,
		DeadAfter:    cfg.deadAfter,
	})
	if err != nil {
		return nil, nil, false, err
	}
	return fl, reg, joined, nil
}

// serve runs the daemon until ctx is cancelled. ready, when non-nil, is
// called with the bound address once the listener is up (tests bind
// ":0").
func serve(ctx context.Context, cfg daemonCfg, logger *log.Logger, ready func(addr string)) error {
	st, err := store.Open(cfg.storeDir, store.Options{SnapshotEvery: cfg.snapshotEvery})
	if err != nil {
		return err
	}
	defer st.Close()
	logger.Printf("store %s: %d entries", cfg.storeDir, st.Len())

	algo := arcs.AlgoAuto
	if cfg.searchAlgo != "" {
		if algo, err = arcs.ParseSearchAlgo(cfg.searchAlgo); err != nil {
			return err
		}
	}

	fl, reg, joined, err := buildFleet(ctx, cfg, st, logger)
	if err != nil {
		return err
	}
	if fl != nil {
		logger.Printf("fleet member %s: epoch %d, %d nodes, %d replicas, anti-entropy every %s",
			fl.Self(), fl.Epoch(), len(fl.Ring().Nodes()), fl.Replicas(), cfg.antiEntropy)
	}

	srvCfg := server.Config{
		Store:                 st,
		SearchBudget:          cfg.searchBudget,
		SearchParallelism:     cfg.searchParallelism,
		MaxConcurrentSearches: cfg.maxSearches,
		SearchTimeout:         cfg.searchTimeout,
		SearchAlgo:            algo,
		Fleet:                 fl,
	}
	if reg != nil {
		srvCfg.PeerClient = reg.Client
	}
	srv := server.New(srvCfg)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	logger.Printf("listening on %s", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if fl != nil && joined {
		// Bootstrap after the listener is up: the ranges this node now
		// owns stream in from the current owners while the daemon already
		// serves (and forwards) traffic. Failures are logged, not fatal —
		// anti-entropy is the backstop.
		go func() {
			stats, err := fl.Bootstrap(ctx, fleet.BootstrapOptions{})
			if err != nil {
				logger.Printf("bootstrap: partial (%d/%d tasks failed): %v", stats.Failures, stats.Tasks, err)
				return
			}
			logger.Printf("bootstrap: merged %d/%d entries over %d tasks", stats.Merged, stats.Entries, stats.Tasks)
		}()
	}
	// The periodic loops run on seeded-jittered intervals (base ± 25%)
	// so a fleet started in lockstep does not sweep or probe in
	// lockstep; the jitter sequence is reproducible from -fleet-seed.
	if fl != nil && cfg.antiEntropy > 0 {
		go func() {
			j := fleet.NewJitter(cfg.fleetSeed, "anti-entropy:"+fl.Self(), cfg.antiEntropy)
			t := time.NewTimer(j.Next())
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					fl.Tick(ctx)
					t.Reset(j.Next())
				}
			}
		}()
	}
	if fl != nil && cfg.heartbeat > 0 {
		go func() {
			j := fleet.NewJitter(cfg.fleetSeed, "heartbeat:"+fl.Self(), cfg.heartbeat)
			t := time.NewTimer(j.Next())
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					for _, tr := range fl.Heartbeat(ctx, time.Now()) {
						logger.Printf("fleet: peer %s %s -> %s", tr.Peer, tr.From, tr.To)
					}
					t.Reset(j.Next())
				}
			}
		}()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := st.Err(); err != nil {
		logger.Printf("store reported: %v", err)
	}
	return st.Close()
}
