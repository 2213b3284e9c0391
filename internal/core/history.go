package arcs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// HistoryKey identifies one tuned context: the paper observes that optimal
// configurations change across regions, power levels and workload sizes
// (§II), so the history is keyed by all three plus the application.
type HistoryKey struct {
	App      string  `json:"app"`
	Workload string  `json:"workload"`
	CapW     float64 `json:"cap_w"` // effective cap (TDP when uncapped)
	Region   string  `json:"region"`
}

// maxCapLen bounds the shortest 'g' form of a float64: sign, 17
// significant digits, point and a five-character exponent ("e-308").
const maxCapLen = 24

// String renders the canonical key form used in history files and as the
// map key of every History implementation: App|Workload|CapW|Region,
// with CapW in fmt's %g form. The form is injective: `|` and `\` inside
// App, Workload or Region are escaped with a `\`. Ring placement,
// digests and snapshot order all depend on these exact bytes, so the
// form must never change (FuzzHistoryKeyString pins it to the Sprintf
// it replaced). It is built in one buffer of exactly its length — the
// key is retained as a map key by every store, so slack would be paid
// per entry — and allocates only its result.
func (k HistoryKey) String() string {
	var num [maxCapLen]byte
	capW := strconv.AppendFloat(num[:0], k.CapW, 'g', -1, 64)
	var b strings.Builder
	b.Grow(escapedLen(k.App) + escapedLen(k.Workload) + len(capW) + escapedLen(k.Region) + 3)
	writeKeyField(&b, k.App)
	b.WriteByte('|')
	writeKeyField(&b, k.Workload)
	b.WriteByte('|')
	b.Write(capW)
	b.WriteByte('|')
	writeKeyField(&b, k.Region)
	return b.String()
}

// escapedLen is the length of s once writeKeyField has escaped it.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == '|' || s[i] == '\\' {
			n++
		}
	}
	return n
}

// writeKeyField writes s with a `\` before every `|` and `\`.
func writeKeyField(b *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' || s[i] == '\\' {
			b.WriteString(s[start:i])
			b.WriteByte('\\')
			start = i // the escaped byte leads the next run
		}
	}
	b.WriteString(s[start:])
}

// History stores the best configurations found by search runs so that
// later executions "can use the saved values instead of repeating the
// search process" (§III-B).
type History interface {
	// Save records the best configuration for a context. A duplicate Save
	// keeps whichever entry has the better (lower) perf, so merging
	// histories or repeating searches can only improve the store; on a
	// perf tie the existing entry is retained.
	Save(k HistoryKey, cfg ConfigValues, perf float64)
	// Load retrieves a previously saved configuration.
	Load(k HistoryKey) (ConfigValues, bool)
	// Len reports the number of stored entries.
	Len() int
}

// FallbackHistory is an optional History extension that can answer an
// exact-key miss with the entry for the closest power cap in the same
// app/workload/region context — the optimum drifts smoothly with the cap
// (§II), so a near-cap configuration is a far better search seed than the
// default.
type FallbackHistory interface {
	History
	// LoadNearest returns the entry whose key matches App, Workload and
	// Region exactly and whose CapW is closest to k's. dist is the
	// absolute cap difference in watts (0 for an exact hit); on a distance
	// tie the lower cap wins, deterministically.
	LoadNearest(k HistoryKey) (cfg ConfigValues, dist float64, ok bool)
}

// Neighbor is one entry from a neighbouring tuned context, returned by
// NeighborHistory.LoadNeighbors in ascending-distance order.
type Neighbor struct {
	Key  HistoryKey   `json:"key"`
	Cfg  ConfigValues `json:"config"`
	Perf float64      `json:"perf"`
	Dist float64      `json:"dist"`
}

// neighborWorkloadPenalty separates the two neighbour classes: any
// same-workload entry (cap distance in watts) ranks ahead of any
// cross-workload entry, which is still usable — the paper observes the
// optimum shifts with workload size but stays in the same basin.
const neighborWorkloadPenalty = 1e3

// NeighborDistance scores how close a stored context ek is to the query
// context k for transfer seeding. Only entries for the same application
// and region qualify; the exact key itself is excluded (an exact hit is a
// replay, not a transfer). Smaller is closer.
func NeighborDistance(k, ek HistoryKey) (float64, bool) {
	if ek.App != k.App || ek.Region != k.Region {
		return 0, false
	}
	d := math.Abs(ek.CapW - k.CapW)
	if ek.Workload != k.Workload {
		d += neighborWorkloadPenalty
	} else if d == 0 { //arcslint:ignore floatcmp exact-key exclusion on identically stored caps
		return 0, false // the exact context: not a neighbour
	}
	return d, true
}

// NeighborHistory is an optional History extension that enumerates the
// contexts nearest to a query key: same app and region, ranked by cap
// distance with cross-workload entries after all same-workload ones.
// Surrogate search uses the result to seed its model and start simplex
// in a new context (§II: optima drift smoothly with cap and workload).
type NeighborHistory interface {
	History
	// LoadNeighbors returns up to max neighbouring entries in ascending
	// NeighborDistance order (ties: lower cap, then key string).
	LoadNeighbors(k HistoryKey, max int) []Neighbor
}

// historyEntry is the serialised record.
type historyEntry struct {
	Key  HistoryKey   `json:"key"`
	Cfg  ConfigValues `json:"config"`
	Perf float64      `json:"perf"`
}

// MemHistory is an in-memory History, used by the benchmark harness where
// search and replay runs happen in one process.
type MemHistory struct {
	entries map[string]historyEntry
}

// NewMemHistory creates an empty in-memory history.
func NewMemHistory() *MemHistory {
	return &MemHistory{entries: make(map[string]historyEntry)}
}

// Save implements History: duplicate keys keep the best (lowest) perf.
func (h *MemHistory) Save(k HistoryKey, cfg ConfigValues, perf float64) {
	ck := k.String()
	if old, ok := h.entries[ck]; ok && old.Perf <= perf {
		return
	}
	h.entries[ck] = historyEntry{Key: k, Cfg: cfg, Perf: perf}
}

// Load implements History.
func (h *MemHistory) Load(k HistoryKey) (ConfigValues, bool) {
	e, ok := h.entries[k.String()]
	return e.Cfg, ok
}

// LoadNearest implements FallbackHistory with a linear scan (in-memory
// histories are small — one entry per tuned region).
func (h *MemHistory) LoadNearest(k HistoryKey) (ConfigValues, float64, bool) {
	if cfg, ok := h.Load(k); ok {
		return cfg, 0, true
	}
	var best historyEntry
	bestDist := math.Inf(1)
	found := false
	for _, e := range h.entries {
		if e.Key.App != k.App || e.Key.Workload != k.Workload || e.Key.Region != k.Region {
			continue
		}
		d := math.Abs(e.Key.CapW - k.CapW)
		//arcslint:ignore floatcmp exact tie-break between identically computed distances
		if d < bestDist || (d == bestDist && e.Key.CapW < best.Key.CapW) {
			best, bestDist, found = e, d, true
		}
	}
	if !found {
		return ConfigValues{}, 0, false
	}
	return best.Cfg, bestDist, true
}

// LoadNeighbors implements NeighborHistory with a linear scan and a
// deterministic sort: distance, then lower cap, then key string.
func (h *MemHistory) LoadNeighbors(k HistoryKey, max int) []Neighbor {
	if max <= 0 {
		return nil
	}
	var out []Neighbor
	for _, e := range h.entries {
		if d, ok := NeighborDistance(k, e.Key); ok {
			//arcslint:ignore determinism SortNeighbors totally orders the slice below
			out = append(out, Neighbor{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf, Dist: d})
		}
	}
	SortNeighbors(out)
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// SortNeighbors orders neighbours by ascending distance, breaking ties
// toward the lower cap and then the canonical key string, so every
// NeighborHistory implementation ranks identically.
func SortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool { return NeighborLess(&ns[i], &ns[j]) })
}

// NeighborLess is the SortNeighbors order, for implementations that rank
// neighbours carried inside their own records.
func NeighborLess(a, b *Neighbor) bool {
	switch {
	case a.Dist < b.Dist:
		return true
	case a.Dist > b.Dist:
		return false
	case a.Key.CapW < b.Key.CapW:
		return true
	case a.Key.CapW > b.Key.CapW:
		return false
	default:
		return a.Key.String() < b.Key.String()
	}
}

// Len implements History.
func (h *MemHistory) Len() int { return len(h.entries) }

// Entries returns the stored records sorted by key (deterministic output
// for reports and tests).
func (h *MemHistory) Entries() []struct {
	Key  HistoryKey
	Cfg  ConfigValues
	Perf float64
} {
	keys := make([]string, 0, len(h.entries))
	for k := range h.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Key  HistoryKey
		Cfg  ConfigValues
		Perf float64
	}, 0, len(keys))
	for _, k := range keys {
		e := h.entries[k]
		out = append(out, struct {
			Key  HistoryKey
			Cfg  ConfigValues
			Perf float64
		}{e.Key, e.Cfg, e.Perf})
	}
	return out
}

// SaveFile serialises the history to a JSON file (the paper's "history
// file" that the offline strategy reads "only once during the whole
// application lifetime").
func (h *MemHistory) SaveFile(path string) error {
	keys := make([]string, 0, len(h.entries))
	for k := range h.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]historyEntry, 0, len(keys))
	for _, k := range keys {
		list = append(list, h.entries[k])
	}
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return fmt.Errorf("arcs: encode history: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("arcs: write history: %w", err)
	}
	return nil
}

// LoadHistoryFile reads a history file written by SaveFile.
func LoadHistoryFile(path string) (*MemHistory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("arcs: read history: %w", err)
	}
	var list []historyEntry
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("arcs: decode history: %w", err)
	}
	h := NewMemHistory()
	for _, e := range list {
		// Save, not direct assignment: duplicate keys in the file resolve
		// by the same keep-best rule as live saves.
		h.Save(e.Key, e.Cfg, e.Perf)
	}
	return h, nil
}

var (
	_ FallbackHistory = (*MemHistory)(nil)
	_ NeighborHistory = (*MemHistory)(nil)
)
