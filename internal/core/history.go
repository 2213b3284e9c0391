package arcs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
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

// String renders the canonical key form: App|Workload|CapW|Region, with
// CapW in fmt's %g form. The form is injective: `|` and `\` inside App,
// Workload or Region are escaped with a `\`. Ring placement and the
// keys of digest and transfer maps depend on these exact bytes, so the
// form must never change (FuzzHistoryKeyString pins it to the Sprintf
// it replaced); entry order does not (CompareEntryKeys). It is built in
// one buffer of exactly its length and allocates only its result.
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
	// perf tie the existing entry is retained. A key whose cap is NaN or
	// infinite is not stored: no Table can order it.
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
	// (ties: lower cap, then entry order), so cross-workload entries come
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

// Table is the in-memory history table every History holds.
// MemHistory is one Table and each store shard another, so the exact,
// nearest-cap and neighbour queries have one implementation. Records are
// laid out by context: an (App, Region) group holds one run per
// workload, each run sorted by cap (compareCaps, which keeps 0 and -0
// apart as the canonical key does). An exact lookup is a group lookup
// plus a binary search, a nearest-cap answer looks at the caps around
// the query, and a neighbour scan reads one group; none builds a
// canonical key. A run stores only what its group and workload do not
// already name: no key string, and no key field twice. Caps must be
// finite (a run cannot order NaN); every History rejects the rest before
// they reach a Table. The zero Table is empty and ready to use. A Table
// is not safe for concurrent use; its holder locks.
type Table struct {
	groups map[tableGroup][]tableRun
	n      int
}

// tableGroup names one (App, Region) group of a Table.
type tableGroup struct{ app, region string }

// tableRun is one workload's records within a group, in compareCaps order.
type tableRun struct {
	workload string
	recs     []tableRec
}

// tableRec is an Entry without the App, Workload and Region its group
// and run hold.
type tableRec struct {
	capW    float64
	cfg     ConfigValues
	perf    float64
	version uint64
}

// entry rebuilds the record at recs[i] as an Entry of app and region.
func (r *tableRun) entry(app, region string, i int) Entry {
	rec := &r.recs[i]
	return Entry{
		Key: HistoryKey{App: app, Workload: r.workload, CapW: rec.capW, Region: region},
		Cfg: rec.cfg, Perf: rec.perf, Version: rec.version,
	}
}

// search returns where capW is in r, or where it would be inserted.
func (r *tableRun) search(capW float64) (int, bool) {
	lo, hi := 0, len(r.recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareCaps(r.recs[m].capW, capW) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.recs) && compareCaps(r.recs[lo].capW, capW) == 0
}

// compareCaps orders caps by value, with -0 before 0: the two are
// distinct canonical keys, and "-0" is the smaller.
func compareCaps(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(b)>>63, math.Float64bits(a)>>63) // a set sign bit first
}

// run returns the run of k's App, Workload and Region, or nil.
func (t *Table) run(k HistoryKey) *tableRun {
	runs := t.groups[tableGroup{k.App, k.Region}]
	for i := range runs {
		if runs[i].workload == k.Workload {
			return &runs[i]
		}
	}
	return nil
}

// Len reports the number of stored entries.
func (t *Table) Len() int { return t.n }

// Get returns the entry stored at k.
func (t *Table) Get(k HistoryKey) (Entry, bool) {
	if r := t.run(k); r != nil {
		if i, ok := r.search(k.CapW); ok {
			return r.entry(k.App, k.Region, i), true
		}
	}
	return Entry{}, false
}

// Put stores e at its key, replacing any entry there, and reports
// whether the key is new. e's cap must be finite.
func (t *Table) Put(e Entry) bool {
	if t.groups == nil {
		t.groups = make(map[tableGroup][]tableRun)
	}
	g := tableGroup{e.Key.App, e.Key.Region}
	r := t.run(e.Key)
	if r == nil {
		runs := append(t.groups[g], tableRun{workload: e.Key.Workload})
		t.groups[g] = runs
		r = &runs[len(runs)-1]
	}
	rec := tableRec{capW: e.Key.CapW, cfg: e.Cfg, perf: e.Perf, version: e.Version}
	i, ok := r.search(e.Key.CapW)
	if ok {
		r.recs[i] = rec
		return false
	}
	r.recs = slices.Insert(r.recs, i, rec)
	t.n++
	return true
}

// Nearest answers LoadNearest over t: the entry at k, else the entry
// whose key matches k's App, Workload and Region and whose CapW is
// closest to k's. dist is the absolute cap difference (0 for an exact
// hit). Distance, then the lower cap, then the smaller canonical key
// decide: in a run that is the first of the closest caps, which is the
// cap just above k's or the first cap below it at the distance of the
// one just below. A query whose cap is not finite misses.
func (t *Table) Nearest(k HistoryKey) (Entry, float64, bool) {
	r := t.run(k)
	if r == nil || math.IsNaN(k.CapW) || math.IsInf(k.CapW, 0) {
		return Entry{}, 0, false
	}
	i, ok := r.search(k.CapW)
	if ok {
		return r.entry(k.App, k.Region, i), 0, true
	}
	dist := func(j int) float64 { return math.Abs(r.recs[j].capW - k.CapW) }
	best := i // the first cap above k's, if any
	if i > 0 && (i == len(r.recs) || dist(i-1) <= dist(i)) {
		// Below k's cap distances grow toward the run's start; equal
		// ones (0 beside -0, or differences that round alike) go to the
		// lowest cap.
		best = i - 1
		//arcslint:ignore floatcmp exact tie between identically computed distances
		for best > 0 && dist(best-1) == dist(best) {
			best--
		}
	}
	return r.entry(k.App, k.Region, best), dist(best), true
}

// Neighbors folds every entry of t that neighbours k (NeighborDistance)
// into ns, a ranked slice of at most max (InsertNeighbor), and returns
// it. Only k's (App, Region) group can hold one.
func (t *Table) Neighbors(ns []Neighbor, k HistoryKey, max int) []Neighbor {
	runs := t.groups[tableGroup{k.App, k.Region}]
	for ri := range runs {
		r := &runs[ri]
		for i := range r.recs {
			e := r.entry(k.App, k.Region, i)
			if d, ok := NeighborDistance(k, e.Key); ok {
				ns = InsertNeighbor(ns, Neighbor{Entry: e, Dist: d}, max)
			}
		}
	}
	return ns
}

// AppendEntries appends every entry of t to dst, each context's run
// whole and in cap order; SortEntries puts the runs in entry order.
func (t *Table) AppendEntries(dst []Entry) []Entry {
	for g, runs := range t.groups {
		for ri := range runs {
			for i := range runs[ri].recs {
				//arcslint:ignore determinism SortEntries totally orders the result
				dst = append(dst, runs[ri].entry(g.app, g.region, i))
			}
		}
	}
	return dst
}

// InsertNeighbor folds n into ns, a slice of at most max >= 1 neighbours
// in rank order, and returns it: n lands at its rank, and when ns is
// full the last one drops. Folding every candidate keeps the max best
// without holding or sorting the rest. The rank order is every
// History's: ascending distance, then the lower cap, then entry order
// (compareNeighbors). Candidates must have distinct keys.
func InsertNeighbor(ns []Neighbor, n Neighbor, max int) []Neighbor {
	if len(ns) >= max && compareNeighbors(&n, &ns[len(ns)-1]) >= 0 {
		return ns
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareNeighbors(&ns[m], &n) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if len(ns) < max {
		ns = append(ns, Neighbor{})
	}
	copy(ns[lo+1:], ns[lo:len(ns)-1])
	ns[lo] = n
	return ns
}

// compareNeighbors is the neighbour rank order: distance, then cap, then
// entry order (every pair of cross-workload donors at one cap ties on
// the first two).
func compareNeighbors(a, b *Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key.CapW, b.Key.CapW); c != 0 {
		return c
	}
	return CompareEntryKeys(&a.Key, &b.Key)
}

// CompareEntryKeys is the one order of history entries, a Table's own
// layout: by context (App, then Region, then Workload, each as plain
// bytes), then by cap (compareCaps: by value, -0 before 0). Entries,
// dumps, snapshots, digests and history files all come out in it.
func CompareEntryKeys(a, b *HistoryKey) int {
	return cmp.Or(
		strings.Compare(a.App, b.App),
		strings.Compare(a.Region, b.Region),
		strings.Compare(a.Workload, b.Workload),
		compareCaps(a.CapW, b.CapW))
}

// SortEntries sorts es, laid out as Table.AppendEntries lays it out
// (each context's entries together and in cap order), into entry order
// (CompareEntryKeys). Only the runs need sorting, one per context, and
// no two compare equal; then each entry is swapped into its place.
func SortEntries(es []Entry) {
	starts := func(i int) bool { // whether es[i] starts a context's run
		a, b := &es[max(i-1, 0)].Key, &es[i].Key
		return i == 0 || a.App != b.App || a.Region != b.Region || a.Workload != b.Workload
	}
	// One buffer: where each entry goes, then where each run starts.
	dst := make([]int, len(es), 2*len(es))
	runs := dst[len(es):]
	for i := range es {
		if starts(i) {
			runs = append(runs, i)
		}
	}
	slices.SortFunc(runs, func(a, b int) int { return CompareEntryKeys(&es[a].Key, &es[b].Key) })
	k := 0
	for _, start := range runs {
		for i := start; i < len(es) && (i == start || !starts(i)); i++ {
			dst[i] = k
			k++
		}
	}
	for i := range es { // each swap puts one entry at its place
		for dst[i] != i {
			j := dst[i]
			es[i], es[j] = es[j], es[i]
			dst[i], dst[j] = dst[j], j
		}
	}
}

// MemHistory is an in-memory History, used by the benchmark harness where
// search and replay runs happen in one process.
type MemHistory struct {
	entries Table
}

// NewMemHistory creates an empty in-memory history.
func NewMemHistory() *MemHistory {
	return &MemHistory{}
}

// Save implements History: duplicate keys keep the best (lowest) perf.
// A key whose cap is not finite is dropped, as the store rejects it.
func (h *MemHistory) Save(k HistoryKey, cfg ConfigValues, perf float64) {
	if math.IsNaN(k.CapW) || math.IsInf(k.CapW, 0) {
		return
	}
	if old, ok := h.entries.Get(k); ok && old.Perf <= perf {
		return
	}
	h.entries.Put(Entry{Key: k, Cfg: cfg, Perf: perf})
}

// Load implements History.
func (h *MemHistory) Load(k HistoryKey) (ConfigValues, bool) {
	e, ok := h.entries.Get(k)
	return e.Cfg, ok
}

// LoadNearest implements History with Table.Nearest.
func (h *MemHistory) LoadNearest(k HistoryKey) (ConfigValues, float64, bool) {
	e, dist, ok := h.entries.Nearest(k)
	return e.Cfg, dist, ok
}

// LoadNeighbors implements History with Table.Neighbors.
func (h *MemHistory) LoadNeighbors(k HistoryKey, max int) []Neighbor {
	if max <= 0 {
		return nil
	}
	return h.entries.Neighbors(make([]Neighbor, 0, max), k, max)
}

// Len implements History.
func (h *MemHistory) Len() int { return h.entries.Len() }

// Entries returns the stored records in entry order (CompareEntryKeys:
// deterministic output for reports, files and tests).
func (h *MemHistory) Entries() []Entry {
	es := h.entries.AppendEntries(make([]Entry, 0, h.entries.Len()))
	SortEntries(es)
	return es
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
