package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	arcs "arcs/internal/core"
	"arcs/internal/evalcache"
	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// The nodes are built in-process with the same public constructors and
// the same defaults as `cmd/arcsd serve()`. Keep these values in step
// with cmd/arcsd's flags; the README lists them.
const (
	antiEntropyEvery = 10 * time.Second // arcsd -anti-entropy
	heartbeatEvery   = 2 * time.Second  // arcsd -heartbeat
	fleetSeed        = 1                // arcsd -fleet-seed
	searchBudget     = 40               // arcsd -search-budget
	httpTimeout      = 30 * time.Second // storeclient.New's http.Client
)

// nodeSpec describes the nodes of one system under test.
type nodeSpec struct {
	n      int             // 1 = standalone, otherwise a fleet of n
	algo   arcs.SearchAlgo // arcsd -search-algo
	dir    string          // parent of the store directories
	tr     *tracer         // nil: no wrappers at all
	search *searchLedger   // traced runs: the benchmark-owned searcher's counters
}

// node is one arcsd: a store, optionally a fleet member, a server on a
// loopback listener, and (in a fleet) the two ticker loops.
type node struct {
	name string
	url  string
	st   *store.Store
	fl   *fleet.Fleet
	hs   *http.Server
	ln   net.Listener
	tp   *http.Transport // this node's outbound connections to its peers

	served chan error
}

// cluster is the running system under test.
type cluster struct {
	nodes  []*node
	dir    string
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

// newTransport is one process's http.DefaultTransport: each in-process
// node and client gets its own, as each arcsd and arcsrun does.
func newTransport() *http.Transport { return http.DefaultTransport.(*http.Transport).Clone() }

// roundTripper wraps tp for tracing when tr is set.
func roundTripper(tp http.RoundTripper, tr *tracer, name string) http.RoundTripper {
	if tr == nil {
		return tp
	}
	return &transport{base: tp, t: tr, name: name}
}

// startCluster brings up spec.n nodes named node0..node{n-1}. Fixed names
// make ring placement independent of the loopback ports.
func startCluster(spec nodeSpec) (*cluster, error) {
	dir, err := os.MkdirTemp(spec.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{dir: dir, cancel: cancel}
	names := make([]string, spec.n)
	for i := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		names[i] = fmt.Sprintf("node%d", i)
		c.nodes = append(c.nodes, &node{name: names[i], url: "http://" + ln.Addr().String(), ln: ln, tp: newTransport()})
	}
	for _, nd := range c.nodes {
		if err := c.startNode(ctx, nd, names, spec); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// startNode mirrors arcsd's serve(): open the store, join the fleet,
// build the server, serve, and start the ticker loops.
func (c *cluster) startNode(ctx context.Context, nd *node, names []string, spec nodeSpec) error {
	opts := store.Options{SnapshotEvery: store.DefaultSnapshotEvery}
	if spec.tr != nil {
		opts.FS = traceFS{FS: store.OSFS, t: spec.tr}
	}
	st, err := store.Open(filepath.Join(c.dir, nd.name), opts)
	if err != nil {
		return err
	}
	nd.st = st
	srvCfg := server.Config{
		Store:                 st,
		SearchBudget:          searchBudget,
		MaxConcurrentSearches: server.DefaultMaxConcurrentSearches,
		SearchTimeout:         server.DefaultSearchTimeout,
		SearchAlgo:            spec.algo,
	}
	if spec.n > 1 {
		// One shared binary, breaker-guarded client per peer serves both
		// replication and lookup proxying, as arcsd's peer registry does.
		peers := make(map[string]*storeclient.Client, len(names))
		fpeers := make(map[string]fleet.Peer, len(names))
		for _, other := range c.nodes {
			if other == nd {
				continue
			}
			cl := storeclient.New(other.url,
				storeclient.WithBinary(),
				storeclient.WithBreaker(5, 2*time.Second),
				storeclient.WithRetries(1),
				storeclient.WithHTTPClient(&http.Client{Timeout: httpTimeout, Transport: roundTripper(nd.tp, spec.tr, "fleet.peer")}),
			)
			peers[other.name], fpeers[other.name] = cl, cl
		}
		nd.fl, err = fleet.New(fleet.Config{
			Self:         nd.name,
			Nodes:        names,
			Replicas:     fleet.DefaultReplicas,
			Store:        st,
			Peers:        fpeers,
			Seed:         fleetSeed,
			HandoffMax:   fleet.DefaultHandoffMax,
			SuspectAfter: fleet.DefaultSuspectAfter,
			DeadAfter:    fleet.DefaultDeadAfter,
		})
		if err != nil {
			return err
		}
		srvCfg.Fleet = nd.fl
		srvCfg.PeerClient = func(name string) *storeclient.Client { return peers[name] }
	}
	if spec.search != nil {
		// Built exactly like server.New's default SimSearcher, but with a
		// cache the benchmark can read and a counted neighbour scan.
		srvCfg.Searcher = &tracedSearcher{
			t: spec.tr, ledger: spec.search,
			inner: server.SimSearcher{Parallelism: srvCfg.SearchParallelism, Cache: evalcache.New(), Algo: spec.algo},
			scan:  st.LoadNeighbors,
		}
	}
	var h http.Handler = server.New(srvCfg)
	if spec.tr != nil {
		h = spec.tr.handler(h)
	}
	nd.hs = &http.Server{Handler: h}
	nd.served = make(chan error, 1)
	go func() { nd.served <- nd.hs.Serve(nd.ln) }()
	if nd.fl != nil {
		c.startLoops(ctx, nd, spec.tr)
	}
	return nil
}

// startLoops runs arcsd's anti-entropy and heartbeat loops on its
// seeded-jitter schedule. Each round is a root span in a traced run.
func (c *cluster) startLoops(ctx context.Context, nd *node, tr *tracer) {
	loop := func(name string, every time.Duration, round func(context.Context)) {
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			j := fleet.NewJitter(fleetSeed, name+":"+nd.fl.Self(), every)
			t := time.NewTimer(j.Next())
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s := tr.begin("fleet."+name, nil)
					round(withSpan(ctx, s))
					tr.end(s, 0)
					t.Reset(j.Next())
				}
			}
		}()
	}
	loop("anti-entropy", antiEntropyEvery, nd.fl.Tick)
	loop("heartbeat", heartbeatEvery, func(ctx context.Context) { nd.fl.Heartbeat(ctx, time.Now()) })
}

// replicated sums fleet.Stats().Replicated over the nodes.
func (c *cluster) replicated() uint64 {
	var n uint64
	for _, nd := range c.nodes {
		if nd.fl != nil {
			n += nd.fl.Stats().Replicated
		}
	}
	return n
}

// close stops the loops, shuts every server down, closes the stores and
// removes their directories, returning the first error.
func (c *cluster) close() error {
	c.cancel()
	c.loops.Wait()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, nd := range c.nodes {
		if nd.hs == nil {
			if nd.ln != nil {
				keep(nd.ln.Close())
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(nd.hs.Shutdown(ctx))
		cancel()
		if err := <-nd.served; !errors.Is(err, http.ErrServerClosed) {
			keep(err)
		}
	}
	for _, nd := range c.nodes {
		nd.tp.CloseIdleConnections()
		if nd.st != nil {
			keep(nd.st.Err())
			keep(nd.st.Close())
		}
	}
	keep(os.RemoveAll(c.dir))
	return first
}

// newClient is a job's storeclient, as `arcsrun -server URL` builds it,
// on its own connection pool.
func newClient(url string, tr *tracer) (*storeclient.Client, *http.Transport) {
	tp := newTransport()
	return storeclient.New(url,
		storeclient.WithBinary(),
		storeclient.WithHTTPClient(&http.Client{Timeout: httpTimeout, Transport: roundTripper(tp, tr, "http.client")}),
	), tp
}
