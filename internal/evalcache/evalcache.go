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
	"strconv"
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

// String renders the canonical, injective form used as the map key:
// distinct Keys always produce distinct strings (FuzzEvalCacheKey checks).
// `|` separates fields, so a literal `|` or `\` in a field is preceded by
// a `\` — the same scheme HistoryKey uses. The cap is the shortest 'g'
// form, the bytes %g prints.
func (k Key) String() string {
	var buf [128]byte
	b := appendField(buf[:0], k.Arch)
	b = append(b, '|')
	b = appendField(b, k.App)
	b = append(b, '|')
	b = appendField(b, k.Workload)
	b = append(b, '|')
	b = appendField(b, k.Region)
	b = append(b, '|')
	b = strconv.AppendFloat(b, k.CapW, 'g', -1, 64)
	b = append(b, '|')
	b = appendField(b, k.Config)
	return string(b)
}

// appendField appends s with a `\` before every `|` and `\`.
func appendField(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' || s[i] == '\\' {
			b = append(b, s[start:i]...)
			b = append(b, '\\')
			start = i // the escaped byte leads the next run
		}
	}
	return append(b, s[start:]...)
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits     uint64 // Do served from the cache
	Misses   uint64 // Do invocations that ran the compute function
	Dedups   uint64 // Do invocations that waited on another worker's compute
	Errors   uint64 // compute failures (never cached)
	Entries  int    // resident values
	InFlight int    // computes currently running
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
