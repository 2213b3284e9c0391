package storeclient

import (
	"context"
	"errors"
	"sync"
	"time"

	arcs "arcs/internal/core"
)

// History adapts a Client to arcs.FallbackHistory, so the tuner can
// warm-start from (and report back to) a served knowledge store exactly
// as it would a local one. Load answers with exact hits only — replay
// semantics — while LoadNearest accepts nearest-cap and server-searched
// answers.
//
// The History interface cannot return errors, so the adapter degrades
// instead of failing: every Save is mirrored into a local in-memory
// history before the best-effort remote report, and when the remote
// lookup fails (network fault, circuit breaker open, or a plain miss)
// Load and LoadNearest fall back to that local copy. While arcsd is
// down the tuner keeps its own results available at memory speed; the
// first remote error is retained and available through Err. Breaker
// sheds are deliberately not recorded as errors — ErrBreakerOpen is the
// client working as designed, not news.
type History struct {
	c *Client
	// arch enables server-side searches on total misses; empty disables.
	arch    string
	timeout time.Duration
	// buf batches reports when WithReportBatching is set; nil reports
	// synchronously per Save.
	buf *ReportBuffer

	mu           sync.Mutex
	local        *arcs.MemHistory // this process's own results; guarded by mu
	localAnswers uint64           // loads answered locally; guarded by mu
	lastErr      error            // guarded by mu
}

// HistoryOption configures a History.
type HistoryOption func(*History)

// WithSearchArch names the architecture the server may search on a total
// miss.
func WithSearchArch(arch string) HistoryOption { return func(h *History) { h.arch = arch } }

// WithTimeout bounds each request issued by the adapter (default 30s).
func WithTimeout(d time.Duration) HistoryOption { return func(h *History) { h.timeout = d } }

// WithReportBatching buffers Saves client-side and flushes every n of
// them (n<=0 selects DefaultReportBufferSize) as one /v1/reports round
// trip. Callers must Flush before shutdown to push the tail.
func WithReportBatching(n int) HistoryOption {
	return func(h *History) { h.buf = NewReportBuffer(h.c, n) }
}

// NewHistory wraps a client as a History.
func NewHistory(c *Client, opts ...HistoryOption) *History {
	h := &History{c: c, timeout: 30 * time.Second, local: arcs.NewMemHistory()}
	for _, o := range opts {
		o(h)
	}
	return h
}

func (h *History) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), h.timeout)
}

// Save implements arcs.History: the entry lands in the local fallback
// first (so this process can always re-load its own results), then is
// POSTed best-effort (the server applies the same keep-best rule, so
// duplicates and retries are harmless).
func (h *History) Save(k arcs.HistoryKey, cfg arcs.ConfigValues, perf float64) {
	h.mu.Lock()
	h.local.Save(k, cfg, perf)
	h.mu.Unlock()
	ctx, cancel := h.ctx()
	defer cancel()
	if h.buf != nil {
		if err := h.buf.Add(ctx, Report{Key: k, Cfg: cfg, Perf: perf}); err != nil {
			h.setErr(err)
		}
		return
	}
	if err := h.c.Report(ctx, k, cfg, perf); err != nil {
		h.setErr(err)
	}
}

// Flush pushes any batched reports still buffered (no-op without
// WithReportBatching). Call it when a run finishes: the tail of the
// batch is the freshest — and often the best — result.
func (h *History) Flush() error {
	if h.buf == nil {
		return nil
	}
	ctx, cancel := h.ctx()
	defer cancel()
	if err := h.buf.Flush(ctx); err != nil {
		h.setErr(err)
		return err
	}
	return nil
}

// Load implements arcs.History: exact hits only, remote first, local
// fallback on any remote failure or miss.
func (h *History) Load(k arcs.HistoryKey) (arcs.ConfigValues, bool) {
	ctx, cancel := h.ctx()
	defer cancel()
	res, err := h.c.Lookup(ctx, k, LookupOpts{Fallback: false, Search: false})
	if err == nil {
		return res.Config, true
	}
	if !errors.Is(err, ErrNotFound) {
		h.setErr(err)
	}
	h.mu.Lock()
	cfg, ok := h.local.Load(k)
	if ok {
		h.localAnswers++
	}
	h.mu.Unlock()
	return cfg, ok
}

// LoadNearest implements arcs.FallbackHistory: accepts nearest-cap
// fallbacks and, when an arch was configured, server-searched answers;
// falls back to the local copy on any remote failure or miss.
func (h *History) LoadNearest(k arcs.HistoryKey) (arcs.ConfigValues, float64, bool) {
	ctx, cancel := h.ctx()
	defer cancel()
	res, err := h.c.Lookup(ctx, k, LookupOpts{Fallback: true, Search: h.arch != "", Arch: h.arch})
	if err == nil {
		return res.Config, res.CapDistance, true
	}
	if !errors.Is(err, ErrNotFound) {
		h.setErr(err)
	}
	h.mu.Lock()
	cfg, dist, ok := h.local.LoadNearest(k)
	if ok {
		h.localAnswers++
	}
	h.mu.Unlock()
	return cfg, dist, ok
}

// LoadNeighbors implements arcs.NeighborHistory: the server's neighbour
// scan merged with this process's local mirror (remote entries win on a
// duplicated context), re-ranked under the shared distance order. A
// pre-neighbors arcsd (endpoint 404s) or an unreachable daemon degrades
// to the local mirror alone — never an error, matching the rest of the
// adapter.
func (h *History) LoadNeighbors(k arcs.HistoryKey, max int) []arcs.Neighbor {
	if max <= 0 {
		return nil
	}
	ctx, cancel := h.ctx()
	defer cancel()
	remote, err := h.c.Neighbors(ctx, k, max)
	if err != nil && !errors.Is(err, ErrNotFound) {
		h.setErr(err)
	}
	h.mu.Lock()
	local := h.local.LoadNeighbors(k, max)
	h.mu.Unlock()
	seen := make(map[string]bool, len(remote))
	out := make([]arcs.Neighbor, 0, len(remote)+len(local))
	for _, n := range remote {
		seen[n.Key.String()] = true
		out = append(out, n)
	}
	for _, n := range local {
		if !seen[n.Key.String()] {
			out = append(out, n)
		}
	}
	arcs.SortNeighbors(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Len implements arcs.History (a full remote dump; diagnostic use only —
// deliberately not answered locally, so existing "server unreachable"
// probes keep seeing 0).
func (h *History) Len() int {
	ctx, cancel := h.ctx()
	defer cancel()
	entries, err := h.c.Dump(ctx)
	if err != nil {
		h.setErr(err)
		return 0
	}
	return len(entries)
}

// LocalAnswers reports how many loads were answered from the local
// fallback instead of the server.
func (h *History) LocalAnswers() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.localAnswers
}

// Err returns the first network error since the last call, clearing it.
func (h *History) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	err := h.lastErr
	h.lastErr = nil
	return err
}

func (h *History) setErr(err error) {
	if errors.Is(err, ErrBreakerOpen) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastErr == nil {
		h.lastErr = err
	}
}

var (
	_ arcs.FallbackHistory = (*History)(nil)
	_ arcs.NeighborHistory = (*History)(nil)
)
