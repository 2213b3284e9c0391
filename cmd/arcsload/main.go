// Command arcsload is a chaos-driven load generator for an arcsd fleet:
// it spreads reports across the members round-robin (any member routes a
// report to its key's owners), fails over to the next member when one
// does not acknowledge, optionally injecting
// transport faults (internal/faults) from a pinned seed, and then
// verifies the durability contract the fleet advertises — every
// acknowledged best survives, replicas converge to byte-identical
// versions, and a warm read from any owner returns the primary's
// winner.
//
// Usage:
//
//	arcsload -peers http://h1:8091,http://h2:8091,http://h3:8091 \
//	    -reports 2000 -keys 64 -seed 42 -chaos 0.05 -verify -settle 30s
//
// The exit code is the verdict: 0 when every check passed, 1 otherwise.
// CI's fleet smoke job runs exactly this binary against three local
// daemons while killing and restarting one of them mid-run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/faults"
	"arcs/internal/fleet"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

func main() {
	var cfg loadCfg
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated fleet membership (base URLs); required")
	flag.IntVar(&cfg.replicas, "replicas", fleet.DefaultReplicas, "replication factor the fleet was started with")
	flag.IntVar(&cfg.reports, "reports", 1000, "total reports to send")
	flag.IntVar(&cfg.keys, "keys", 64, "distinct history keys to spread the reports over")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload and chaos seed (reproduces a run exactly)")
	flag.Float64Var(&cfg.chaos, "chaos", 0, "per-request probability of an injected transport fault (0 disables)")
	flag.BoolVar(&cfg.verify, "verify", false, "after the load, verify convergence and zero lost acknowledged bests")
	flag.DurationVar(&cfg.settle, "settle", 30*time.Second, "max time to wait for replicas to converge during -verify")
	flag.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request timeout")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := log.Default()
	res, err := run(ctx, cfg, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcsload:", err)
		os.Exit(1)
	}
	logger.Printf("sent %d reports over %d keys: %d acked, %d unacked, %d failovers, %d faults injected",
		res.Sent, len(res.AckedBest), res.Acked, res.Sent-res.Acked, res.Failovers, res.Injected)
	if cfg.verify {
		if err := verify(ctx, cfg, res, logger); err != nil {
			fmt.Fprintln(os.Stderr, "arcsload: VERIFY FAILED:", err)
			os.Exit(1)
		}
		logger.Printf("verify: converged, zero lost acknowledged bests")
	}
}

// loadCfg carries the parsed command line.
type loadCfg struct {
	peers    string
	replicas int
	reports  int
	keys     int
	seed     int64
	chaos    float64
	verify   bool
	settle   time.Duration
	timeout  time.Duration
}

func (c loadCfg) members() []string {
	var nodes []string
	for _, p := range strings.Split(c.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			nodes = append(nodes, p)
		}
	}
	return nodes
}

// acked is the best (lowest perf) result the fleet acknowledged for one
// key — the record verify holds the cluster to.
type acked struct {
	Key  arcs.HistoryKey
	Cfg  arcs.ConfigValues
	Perf float64
}

// result is what one load run observed.
type result struct {
	Sent      int              // reports attempted
	Acked     int              // reports some fleet member acknowledged
	Failovers uint64           // client-side skips past a dead node
	Injected  uint64           // transport faults fired
	AckedBest map[string]acked // canonical key -> best acknowledged
}

// clientOpts are the per-member client options; inj, when non-nil,
// wraps the transport with fault injection.
func clientOpts(cfg loadCfg, inj *faults.Injector) []storeclient.Option {
	hc := &http.Client{Timeout: cfg.timeout}
	if inj != nil {
		hc.Transport = faults.NewTransport(inj, nil)
	}
	return []storeclient.Option{
		storeclient.WithRetries(1),
		storeclient.WithJitterSeed(cfg.seed),
		storeclient.WithHTTPClient(hc),
	}
}

// run drives the load: seeded synthetic reports, report i sent to
// member i mod n and failed over through the rest, best acknowledged
// perf tracked per key. Only an acknowledged report enters AckedBest —
// an error from every member means the fleet never took responsibility,
// so verify must not demand the record back.
func run(ctx context.Context, cfg loadCfg, logger *log.Logger) (*result, error) {
	if cfg.reports <= 0 || cfg.keys <= 0 {
		return nil, fmt.Errorf("-reports and -keys must be positive")
	}
	var inj *faults.Injector
	if cfg.chaos > 0 {
		inj = faults.New(faults.SeedFromEnv(cfg.seed))
		// A mix of resets, 503 bursts, and latency: every failure mode
		// the client's retry/failover path claims to absorb.
		inj.Add(faults.Rule{Op: faults.OpHTTP, Kind: faults.Reset, Prob: cfg.chaos / 2})
		inj.Add(faults.Rule{Op: faults.OpHTTP, Kind: faults.Status5xx, Prob: cfg.chaos / 2})
		inj.Add(faults.Rule{Op: faults.OpHTTP, Kind: faults.Latency, Prob: cfg.chaos, Latency: 5 * time.Millisecond})
	}
	nodes := cfg.members()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers is required")
	}
	clients := make([]*storeclient.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = storeclient.New(n, clientOpts(cfg, inj)...)
	}
	wl := newWorkload(cfg.seed, cfg.keys)
	res := &result{AckedBest: make(map[string]acked)}
	for i := 0; i < cfg.reports; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		k, c, perf := wl.next()
		res.Sent++
		if !report(ctx, cfg, clients, i, k, c, perf, &res.Failovers) {
			continue // unacked: the fleet owes us nothing for this one
		}
		res.Acked++
		ck := k.String()
		if best, ok := res.AckedBest[ck]; !ok || perf < best.Perf {
			res.AckedBest[ck] = acked{Key: k, Cfg: c, Perf: perf}
		}
	}
	if inj != nil {
		res.Injected = inj.Injected(faults.OpHTTP)
		logger.Printf("chaos: %s", inj)
	}
	return res, nil
}

// report sends one report to clients[start mod n], then to each later
// member in turn until one acknowledges, counting every skip past a
// member that did not as a failover. It reports whether any member
// acknowledged.
func report(ctx context.Context, cfg loadCfg, clients []*storeclient.Client, start int, k arcs.HistoryKey, c arcs.ConfigValues, perf float64, failovers *uint64) bool {
	for j := range clients {
		if j > 0 {
			*failovers++
		}
		rctx, cancel := context.WithTimeout(ctx, cfg.timeout)
		err := clients[(start+j)%len(clients)].Report(rctx, k, c, perf)
		cancel()
		if err == nil {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
	}
	return false
}

// verify polls the fleet until every check passes or the settle budget
// runs out (the last error is returned). Each round first refreshes its
// membership view from the live fleet (refresh), so a join or decommission
// that happened mid-run is verified under the ring the fleet actually
// converged to — not the member list the command line was started with.
// The checks, per polling round:
//
//  1. Zero lost acknowledged bests: every owner's dump holds each acked
//     key at a perf no worse than what was acknowledged.
//  2. Byte-identical replicas: all owners agree on version, perf, and
//     config for every acked key.
//  3. Warm reads: a /v1/config lookup answered locally by any owner
//     (forwarded flag set, so no proxying) returns the primary's winner.
func verify(ctx context.Context, cfg loadCfg, res *result, logger *log.Logger) error {
	seeds := cfg.members()
	clients := make(map[string]*storeclient.Client)
	client := func(n string) (*storeclient.Client, error) {
		c := clients[n]
		if c == nil {
			c = storeclient.New(n, clientOpts(cfg, nil)...)
			clients[n] = c
		}
		return c, nil
	}
	views, err := fleet.NewViews(codec.MemberList{Nodes: seeds}, cfg.replicas, client)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(cfg.settle)
	var lastErr error
	for round := 0; ; round++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if v, err := refresh(ctx, cfg, seeds, views, client); err != nil {
			lastErr = fmt.Errorf("refresh membership: %w", err)
		} else if lastErr = verifyOnce(ctx, cfg, v, res); lastErr == nil {
			logger.Printf("verify: round %d clean (%d keys)", round, len(res.AckedBest))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not converged after %s: %w", cfg.settle, lastErr)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// refresh pings the command-line members and the current view's
// members, offers every member list they answer with to views (Adopt
// keeps only a superseding one), and returns the view now in effect. A
// standalone daemon answers epoch 0 and offers nothing.
func refresh(ctx context.Context, cfg loadCfg, seeds []string, views *fleet.Views[*storeclient.Client], client func(string) (*storeclient.Client, error)) (*fleet.View[*storeclient.Client], error) {
	names := append(slices.Clone(seeds), views.View().Peers()...)
	slices.Sort(names)
	var lastErr error
	answered := false
	for _, n := range slices.Compact(names) {
		c, _ := client(n)
		rctx, cancel := context.WithTimeout(ctx, cfg.timeout)
		m, err := c.Ping(rctx)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		answered = true
		if m.Epoch == 0 || len(m.Nodes) == 0 {
			continue
		}
		if _, _, err := views.Adopt(m, nil); err != nil {
			return nil, fmt.Errorf("adopt membership from %s: %w", n, err)
		}
	}
	if !answered {
		return nil, lastErr
	}
	return views.View(), nil
}

func verifyOnce(ctx context.Context, cfg loadCfg, v *fleet.View[*storeclient.Client], res *result) error {
	// One dump per node, keyed by canonical key.
	dumps := make(map[string]map[string]store.Entry, len(v.Peers()))
	for _, node := range v.Peers() {
		rctx, cancel := context.WithTimeout(ctx, cfg.timeout)
		entries, err := v.Peer(node).Dump(rctx)
		cancel()
		if err != nil {
			return fmt.Errorf("dump %s: %w", node, err)
		}
		m := make(map[string]store.Entry, len(entries))
		for _, e := range entries {
			m[e.Key.String()] = e
		}
		dumps[node] = m
	}
	cks := make([]string, 0, len(res.AckedBest))
	for ck := range res.AckedBest {
		cks = append(cks, ck)
	}
	sort.Strings(cks)
	for _, ck := range cks {
		want := res.AckedBest[ck]
		owners := v.Owners(ck, nil)
		var first store.Entry
		for i, node := range owners {
			e, ok := dumps[node][ck]
			if !ok {
				return fmt.Errorf("key %q: owner %s lost it entirely", ck, node)
			}
			if e.Perf > want.Perf {
				return fmt.Errorf("key %q: owner %s has perf %v, worse than acknowledged %v", ck, node, e.Perf, want.Perf)
			}
			if i == 0 {
				first = e
				continue
			}
			if e.Version != first.Version || e.Perf != first.Perf || e.Cfg != first.Cfg {
				return fmt.Errorf("key %q: replicas diverge: %s has v%d perf %v, %s has v%d perf %v",
					ck, owners[0], first.Version, first.Perf, node, e.Version, e.Perf)
			}
		}
	}
	// Warm reads: every owner, answering locally, must return the
	// primary's winner.
	for _, ck := range cks {
		want := res.AckedBest[ck]
		owners := v.Owners(ck, nil)
		var primary storeclient.Result
		for i, node := range owners {
			rctx, cancel := context.WithTimeout(ctx, cfg.timeout)
			got, err := v.Peer(node).Lookup(rctx, want.Key, storeclient.LookupOpts{Forwarded: true})
			cancel()
			if err != nil {
				return fmt.Errorf("warm read %q from %s: %w", ck, node, err)
			}
			if i == 0 {
				primary = got
				continue
			}
			if got.Config != primary.Config || got.Perf != primary.Perf || got.Version != primary.Version {
				return fmt.Errorf("warm read %q: %s answers %+v, primary %s answers %+v",
					ck, node, got, owners[0], primary)
			}
		}
	}
	return nil
}
