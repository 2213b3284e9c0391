// Package evalcache memoises simulator probe results for Harmony
// searches. A probe is fully determined by the architecture, the
// application, its workload, the region, the effective package power cap,
// and the runtime configuration being measured — the same tuple the
// paper's history store keys on (§III-B), extended with the concrete
// configuration. Repeated searches over the same context (a re-search at
// an already-visited cap, a server answering the same request twice, a
// benchmark sweep revisiting Table-I points) therefore hit the cache and
// skip the probe entirely.
//
// The cache is safe for concurrent use and provides single-flight
// deduplication: when several workers ask for the same key at once, one
// computes while the rest wait and share its result. Errors are returned
// to every waiter but never cached, so a transient failure does not
// poison the key.
package evalcache

import (
	"fmt"
	"strings"
	"sync"
)

// Key identifies one probe. CapW must be the *effective* cap (TDP when
// uncapped): performance under a 55 W cap and under TDP differ wildly for
// the same configuration, so omitting the cap would alias distinct
// measurements (see DESIGN.md).
type Key struct {
	Arch     string
	App      string
	Workload string
	Region   string
	CapW     float64
	Config   string // canonical configuration form, e.g. Config.String()
}

// keyEscaper makes String injective: `|` separates fields, so literal `|`
// and the escape character are escaped — the same scheme HistoryKey uses.
var keyEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`)

func escape(s string) string {
	if !strings.ContainsAny(s, `|\`) {
		return s
	}
	return keyEscaper.Replace(s)
}

// String renders the canonical, injective form used as the map key:
// distinct Keys always produce distinct strings (FuzzKeyString checks).
func (k Key) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%g|%s",
		escape(k.Arch), escape(k.App), escape(k.Workload),
		escape(k.Region), k.CapW, escape(k.Config))
}

// Stats is a snapshot of the cache counters, exported on /metrics
// through the metric and help tags.
type Stats struct {
	Hits     uint64 `metric:"arcsd_evalcache_hits_total,counter" help:"Probe evaluations served from the eval cache."`                  // Do served from the cache
	Misses   uint64 `metric:"arcsd_evalcache_misses_total,counter" help:"Probe evaluations computed fresh (cache misses)."`             // Do invocations that ran the compute function
	Dedups   uint64 `metric:"arcsd_evalcache_dedup_total,counter" help:"Probe evaluations shared with a concurrent in-flight compute."` // Do invocations that waited on another worker's compute
	Errors   uint64 // compute failures (never cached)
	Entries  int    `metric:"arcsd_evalcache_entries,gauge" help:"Resident eval-cache entries."`           // resident values
	InFlight int    `metric:"arcsd_evalcache_inflight,gauge" help:"Probe computations currently running."` // computes currently running
}

// call is one in-flight single-flight computation.
type call struct {
	done chan struct{}
	val  float64
	err  error
}

// Cache is a concurrency-safe memoising store of probe results with
// single-flight deduplication. The zero value is NOT ready; use New.
type Cache struct {
	mu      sync.Mutex
	vals    map[string]float64 // guarded by mu
	flights map[string]*call   // guarded by mu

	hits   uint64 // guarded by mu
	misses uint64 // guarded by mu
	dedups uint64 // guarded by mu
	errs   uint64 // guarded by mu
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		vals:    make(map[string]float64),
		flights: make(map[string]*call),
	}
}

// Do returns the value for k, computing it with f on a miss. Concurrent
// Do calls for the same key are deduplicated: exactly one runs f, the
// rest block until it finishes and share the result. An error from f is
// propagated to every waiter and nothing is cached.
func (c *Cache) Do(k Key, f func() (float64, error)) (float64, error) {
	if c == nil {
		return f()
	}
	s := k.String()
	c.mu.Lock()
	if v, ok := c.vals[s]; ok {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	if fl, ok := c.flights[s]; ok {
		c.dedups++
		c.mu.Unlock()
		<-fl.done
		return fl.val, fl.err
	}
	fl := &call{done: make(chan struct{})}
	c.flights[s] = fl
	c.misses++
	c.mu.Unlock()

	fl.val, fl.err = f()

	c.mu.Lock()
	delete(c.flights, s)
	if fl.err == nil {
		c.vals[s] = fl.val
	} else {
		c.errs++
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits,
		Misses:   c.misses,
		Dedups:   c.dedups,
		Errors:   c.errs,
		Entries:  len(c.vals),
		InFlight: len(c.flights),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}
