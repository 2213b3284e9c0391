package arcs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
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

// keyEscaped reports whether writeKeyField writes c behind a `\`.
func keyEscaped(c byte) bool { return c == '|' || c == '\\' }

// escapedLen is the length of s once writeKeyField has escaped it.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if keyEscaped(s[i]) {
			n++
		}
	}
	return n
}

// writeKeyField writes s with a `\` before every `|` and `\`.
func writeKeyField(b *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		if keyEscaped(s[i]) {
			b.WriteString(s[start:i])
			b.WriteByte('\\')
			start = i // the escaped byte leads the next run
		}
	}
	b.WriteString(s[start:])
}

// History stores the best configurations found by search runs so that
// later executions "can use the saved values instead of repeating the
// search process" (§III-B). Besides exact lookups it answers the two
// nearby-context queries warm starts use: the nearest cap in the same
// context and the ranked neighbouring contexts.
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
	// LoadNearest answers an exact-key miss with the entry whose key
	// matches App, Workload and Region exactly and whose CapW is closest
	// to k's — the optimum drifts smoothly with the cap (§II), so a
	// near-cap configuration is a far better search seed than the
	// default. dist is the absolute cap difference in watts (0 for an
	// exact hit); on a distance tie the lower cap wins, then the smaller
	// canonical key (Table.Nearest), so the answer never depends on map
	// order.
	LoadNearest(k HistoryKey) (cfg ConfigValues, dist float64, ok bool)
	// LoadNeighbors returns up to max entries from the contexts nearest
	// to k — same app and region, in ascending NeighborDistance order
	// (ties: lower cap, then key string), so cross-workload entries come
	// after all same-workload ones. Surrogate search uses them to seed
	// its model and start simplex in a new context (§II: optima drift
	// smoothly with cap and workload).
	LoadNeighbors(k HistoryKey, max int) []Neighbor
}

// Entry is one stored record: a tuned configuration, the performance
// that earned it, and a per-key monotonic version (bumped on every
// accepted update by a versioned store; MemHistory leaves it 0). It is
// declared once, here, for every History; internal/codec aliases it as
// the WAL record, the /v1/merge and /v1/dump element, and a snapshot row.
type Entry struct {
	Key     HistoryKey   `json:"key"`
	Cfg     ConfigValues `json:"config"`
	Perf    float64      `json:"perf"`
	Version uint64       `json:"version"`
}

// Neighbor is one entry from a neighbouring tuned context plus its
// transfer distance from the queried key (NeighborDistance), returned by
// History.LoadNeighbors in ascending-distance order. Its JSON form is
// the GET /v1/neighbors record: the entry's fields, then dist.
type Neighbor struct {
	Entry
	Dist float64 `json:"dist"`
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

// Table is the in-memory history table every History holds: records
// keyed by canonical key. MemHistory is one Table and each store shard
// another, so the nearest-cap and neighbour queries have one
// implementation. A Table is not safe for concurrent use; its holder
// locks.
type Table map[string]Entry

// Nearest answers LoadNearest over t: the entry at ck, k's canonical
// key, else the entry whose key matches k's App, Workload and Region and
// whose CapW is closest to k's. dist is the absolute cap difference (0
// for an exact hit). Distance, then the lower cap, then the smaller
// canonical key decide, so caps that compare equal (0 and -0) never
// leave the answer to map order.
func (t Table) Nearest(k HistoryKey, ck string) (Entry, float64, bool) {
	if e, ok := t[ck]; ok {
		return e, 0, true
	}
	var best Entry
	var bestKey string // stays "" until a match: no canonical key is empty
	bestDist := math.Inf(1)
	for ek, e := range t {
		if e.Key.App != k.App || e.Key.Workload != k.Workload || e.Key.Region != k.Region {
			continue
		}
		d := math.Abs(e.Key.CapW - k.CapW)
		//arcslint:ignore floatcmp exact tie-breaks between identically computed distances and stored caps
		if d < bestDist || (d == bestDist && (e.Key.CapW < best.Key.CapW || (e.Key.CapW == best.Key.CapW && ek < bestKey))) {
			best, bestKey, bestDist = e, ek, d
		}
	}
	if bestKey == "" {
		return Entry{}, 0, false
	}
	return best, bestDist, true
}

// AppendNeighbors appends every entry of t that neighbours k
// (NeighborDistance) to dst, unranked; RankNeighbors orders the result.
func (t Table) AppendNeighbors(dst []Neighbor, k HistoryKey) []Neighbor {
	for _, e := range t {
		if d, ok := NeighborDistance(k, e.Key); ok {
			//arcslint:ignore determinism RankNeighbors totally orders the result
			dst = append(dst, Neighbor{Entry: e, Dist: d})
		}
	}
	return dst
}

// RankNeighbors sorts ns by ascending distance, breaking ties toward the
// lower cap and then the canonical key string, and returns at most max of
// them, so every History ranks identically. It builds no key: every pair
// of cross-workload donors at one cap ties, and compareKeys orders them.
func RankNeighbors(ns []Neighbor, max int) []Neighbor {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Key.CapW, b.Key.CapW); c != 0 {
			return c
		}
		return compareKeys(a.Key, b.Key)
	})
	return ns[:min(len(ns), max)]
}

// compareKeys orders a and b as strings.Compare orders their canonical
// keys, without building them. Each field but the last is followed by a
// `|` no escaped field holds unescaped, so the fields compare one after
// another, each with the separator that ends it.
func compareKeys(a, b HistoryKey) int {
	if c := compareKeyField(a.App, b.App, '|'); c != 0 {
		return c
	}
	if c := compareKeyField(a.Workload, b.Workload, '|'); c != 0 {
		return c
	}
	var na, nb [maxCapLen]byte
	ca := strconv.AppendFloat(na[:0], a.CapW, 'g', -1, 64)
	cb := strconv.AppendFloat(nb[:0], b.CapW, 'g', -1, 64)
	if c := compareKeyField(ca, cb, '|'); c != 0 {
		return c
	}
	return compareKeyField(a.Region, b.Region, -1)
}

// compareKeyField orders a and b as strings.Compare orders their escaped
// forms (writeKeyField), each followed by sep; a sep of -1 is the key's
// end.
func compareKeyField[S string | []byte](a, b S, sep int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	if n == len(a) && n == len(b) {
		return 0
	}
	x, y := escapedByte(a, n, sep), escapedByte(b, n, sep)
	if x == y { // both escaped: the bytes after the two `\` decide
		return cmp.Compare(a[n], b[n])
	}
	return cmp.Compare(x, y)
}

// escapedByte is the byte of s's escaped form that s[n] starts, or sep
// when s ends at n.
func escapedByte[S string | []byte](s S, n, sep int) int {
	switch {
	case n == len(s):
		return sep
	case keyEscaped(s[n]):
		return '\\'
	}
	return int(s[n])
}

// MemHistory is an in-memory History, used by the benchmark harness where
// search and replay runs happen in one process.
type MemHistory struct {
	entries Table
}

// NewMemHistory creates an empty in-memory history.
func NewMemHistory() *MemHistory {
	return &MemHistory{entries: make(Table)}
}

// Save implements History: duplicate keys keep the best (lowest) perf.
func (h *MemHistory) Save(k HistoryKey, cfg ConfigValues, perf float64) {
	ck := k.String()
	if old, ok := h.entries[ck]; ok && old.Perf <= perf {
		return
	}
	h.entries[ck] = Entry{Key: k, Cfg: cfg, Perf: perf}
}

// Load implements History.
func (h *MemHistory) Load(k HistoryKey) (ConfigValues, bool) {
	e, ok := h.entries[k.String()]
	return e.Cfg, ok
}

// LoadNearest implements History with Table.Nearest (in-memory
// histories are small — one entry per tuned region).
func (h *MemHistory) LoadNearest(k HistoryKey) (ConfigValues, float64, bool) {
	e, dist, ok := h.entries.Nearest(k, k.String())
	return e.Cfg, dist, ok
}

// LoadNeighbors implements History with Table.AppendNeighbors and
// RankNeighbors.
func (h *MemHistory) LoadNeighbors(k HistoryKey, max int) []Neighbor {
	if max <= 0 {
		return nil
	}
	return RankNeighbors(h.entries.AppendNeighbors(nil, k), max)
}

// Len implements History.
func (h *MemHistory) Len() int { return len(h.entries) }

// Entries returns the stored records sorted by canonical key
// (deterministic output for reports, files and tests).
func (h *MemHistory) Entries() []Entry {
	keys := make([]string, 0, len(h.entries))
	for k := range h.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = h.entries[k]
	}
	return out
}

// historyEntry is the history file's record: an Entry without the
// version, which MemHistory does not keep.
type historyEntry struct {
	Key  HistoryKey   `json:"key"`
	Cfg  ConfigValues `json:"config"`
	Perf float64      `json:"perf"`
}

// SaveFile serialises the history to a JSON file (the paper's "history
// file" that the offline strategy reads "only once during the whole
// application lifetime").
func (h *MemHistory) SaveFile(path string) error {
	es := h.Entries()
	list := make([]historyEntry, len(es)) // an empty history is "[]", not "null"
	for i, e := range es {
		list[i] = historyEntry{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf}
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

var _ History = (*MemHistory)(nil)
