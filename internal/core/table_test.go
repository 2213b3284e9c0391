package arcs

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleNearest is a frozen copy of the nearest-cap scan Table.Nearest
// replaced (MemHistory's and the store's were the same): the exact key,
// else distance, then the lower cap, then the smaller canonical key.
func oracleNearest(t map[string]Entry, k HistoryKey) (Entry, float64, bool) {
	ck := k.String()
	if e, ok := t[ck]; ok {
		return e, 0, true
	}
	var best Entry
	var bestKey string
	bestDist := math.Inf(1)
	found := false
	for ek, e := range t {
		if e.Key.App != k.App || e.Key.Workload != k.Workload || e.Key.Region != k.Region {
			continue
		}
		d := math.Abs(e.Key.CapW - k.CapW)
		//arcslint:ignore floatcmp frozen copy of the exact tie-breaks
		if d < bestDist || (d == bestDist && (e.Key.CapW < best.Key.CapW || (e.Key.CapW == best.Key.CapW && ek < bestKey))) {
			best, bestKey, bestDist, found = e, ek, d, true
		}
	}
	if !found {
		return Entry{}, 0, false
	}
	return best, bestDist, true
}

// oracleRank is a frozen copy of the store's neighbour scan that
// RankNeighbors(AppendNeighbors(...)) replaced: a sort.Sort over the
// candidates with their versions carried beside them. Its last
// tie-break is entry order (CompareEntryKeys).
type oracleRank struct {
	ns   []Neighbor
	vers []uint64
}

func (r oracleRank) Len() int { return len(r.ns) }
func (r oracleRank) Less(i, j int) bool {
	a, b := &r.ns[i], &r.ns[j]
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
		return CompareEntryKeys(&a.Key, &b.Key) < 0
	}
}
func (r oracleRank) Swap(i, j int) {
	r.ns[i], r.ns[j] = r.ns[j], r.ns[i]
	r.vers[i], r.vers[j] = r.vers[j], r.vers[i]
}

func oracleNeighbors(t map[string]Entry, k HistoryKey, max int) []Neighbor {
	var r oracleRank
	for _, e := range t {
		if d, ok := NeighborDistance(k, e.Key); ok {
			r.ns = append(r.ns, Neighbor{Entry: Entry{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf}, Dist: d})
			r.vers = append(r.vers, e.Version)
		}
	}
	sort.Sort(r)
	n := min(len(r.ns), max)
	for i := range r.ns[:n] {
		r.ns[i].Version = r.vers[i]
	}
	return r.ns[:n]
}

// Random table pools. Caps include both zeros (distinct canonical keys,
// equal values) and steps that put a query cap at equal distance from
// two stored caps, one on each side; every cap recurs across workloads,
// so cross-workload donors tie at equal caps too. "B|" sorts after "B"
// as plain bytes but before it as escaped key text.
var (
	tableApps      = []string{"SP", "BT"}
	tableWorkloads = []string{"B", "C", "D", "B|"}
	tableRegions   = []string{"x_solve", "y_solve"}
	tableCaps      = []float64{0, math.Copysign(0, -1), 5, 50, 55, 60, 62.5, 65, 70, 85}
	tableQueryCaps = append([]float64{-5, 2.5, 52.5, 57.5, 63.75, 67.5, 100}, tableCaps...)
)

func randomTableKey(r *rand.Rand, caps []float64) HistoryKey {
	return HistoryKey{
		App:      tableApps[r.Intn(len(tableApps))],
		Workload: tableWorkloads[r.Intn(len(tableWorkloads))],
		CapW:     caps[r.Intn(len(caps))],
		Region:   tableRegions[r.Intn(len(tableRegions))],
	}
}

// sameEntry compares two entries exactly: caps and floats by their bits,
// so 0 and -0 differ.
func sameEntry(a, b Entry) bool {
	return a.Key.String() == b.Key.String() && a.Cfg == b.Cfg &&
		math.Float64bits(a.Perf) == math.Float64bits(b.Perf) && a.Version == b.Version
}

// TestTableMatchesOracle: on seeded random tables, Table.Nearest and
// Table.Neighbors answer exactly what the frozen scans answer,
// tie-breaks, negative zeros and versions included.
func TestTableMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab Table
		oracle := make(map[string]Entry)
		for n := 5 + r.Intn(100); len(oracle) < n; { // of 120 distinct keys
			k := randomTableKey(r, tableCaps)
			cfg := ConfigValues{Threads: 1 + r.Intn(32), Chunk: r.Intn(8)}
			e := Entry{Key: k, Cfg: cfg, Perf: 1 + r.Float64(), Version: uint64(1 + r.Intn(5))}
			tab.Put(e)
			oracle[k.String()] = e
		}
		for q := 0; q < 150; q++ {
			k := randomTableKey(r, tableQueryCaps)
			got, gotDist, gotOK := tab.Nearest(k)
			want, wantDist, wantOK := oracleNearest(oracle, k)
			if gotOK != wantOK || !sameEntry(got, want) || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
				t.Fatalf("seed %d: Nearest(%v) = %+v, %g, %v; oracle %+v, %g, %v",
					seed, k, got, gotDist, gotOK, want, wantDist, wantOK)
			}
			max := 1 + r.Intn(len(oracle)+2)
			ns := tab.Neighbors(nil, k, max)
			wantNs := oracleNeighbors(oracle, k, max)
			if len(ns) != len(wantNs) {
				t.Fatalf("seed %d: %d neighbours of %v, oracle %d", seed, len(ns), k, len(wantNs))
			}
			for i := range ns {
				if !sameEntry(ns[i].Entry, wantNs[i].Entry) || math.Float64bits(ns[i].Dist) != math.Float64bits(wantNs[i].Dist) {
					t.Fatalf("seed %d: neighbour #%d of %v is %+v, oracle %+v", seed, i, k, ns[i], wantNs[i])
				}
			}
		}
	}
}

// TestInsertNeighborMatchesSortAll: folding candidates one at a time
// into a slice of at most max, in any order, keeps exactly the first max
// of the frozen sort-everything ranking (oracleNeighbors), versions
// included, for every max from 1 to past the candidate count. Every cap
// recurs across the four workloads (cross-workload ties on distance and
// cap, one workload with an escaped byte), both zeros are caps, and the
// query caps sit between stored caps at equal distances on each side.
func TestInsertNeighborMatchesSortAll(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := randomTableKey(r, tableQueryCaps)
		oracle := make(map[string]Entry)
		var cands []Neighbor
		for n := 1 + r.Intn(25); len(cands) < n; { // of at least 28 donors
			ek := HistoryKey{
				App:      k.App,
				Workload: tableWorkloads[r.Intn(len(tableWorkloads))],
				CapW:     tableCaps[r.Intn(len(tableCaps))],
				Region:   k.Region,
			}
			d, ok := NeighborDistance(k, ek)
			if _, dup := oracle[ek.String()]; dup || !ok {
				continue
			}
			e := Entry{Key: ek, Cfg: ConfigValues{Threads: 1 + r.Intn(32)}, Perf: 1 + r.Float64(), Version: uint64(1 + r.Intn(5))}
			oracle[ek.String()] = e
			cands = append(cands, Neighbor{Entry: e, Dist: d})
		}
		for max := 1; max <= len(cands)+2; max++ {
			r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			var ns []Neighbor
			for _, n := range cands {
				ns = InsertNeighbor(ns, n, max)
			}
			want := oracleNeighbors(oracle, k, max)
			if len(ns) != len(want) {
				t.Fatalf("seed %d: %d of %d neighbours of %v kept at max %d, oracle %d", seed, len(ns), len(cands), k, max, len(want))
			}
			for i := range ns {
				if !sameEntry(ns[i].Entry, want[i].Entry) || math.Float64bits(ns[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("seed %d, max %d: neighbour #%d of %v is %+v, oracle %+v", seed, max, i, k, ns[i], want[i])
				}
			}
		}
	}
}

// TestSortEntriesMatchesSortFunc: SortEntries orders a Table's entries,
// as AppendEntries emits them, exactly as slices.SortFunc with
// CompareEntryKeys does. The pools escape separators, hold both zeros,
// and hold caps whose text order differs from their numeric order.
func TestSortEntriesMatchesSortFunc(t *testing.T) {
	apps := []string{"SP", "S", "SP|", `S\P`, "LULESH"}
	workloads := []string{"B", "", "B|C", `\`}
	regions := []string{"x_solve", "x", `x|y`, ""}
	caps := []float64{0, math.Copysign(0, -1), 5, 50, 55, 62.5, 1234567.5, 1234567.25, 12345678, 1e21, 1.5e-7, -3}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var tab Table
		for i, n := 0, 1+r.Intn(400); i < n; i++ {
			k := HistoryKey{
				App:      apps[r.Intn(len(apps))],
				Workload: workloads[r.Intn(len(workloads))],
				CapW:     caps[r.Intn(len(caps))],
				Region:   regions[r.Intn(len(regions))],
			}
			tab.Put(Entry{Key: k, Perf: 1, Version: uint64(i)})
		}
		es := tab.AppendEntries(nil)
		if len(es) != tab.Len() {
			t.Fatalf("seed %d: AppendEntries gave %d entries, Len %d", seed, len(es), tab.Len())
		}
		want := slices.Clone(es)
		slices.SortFunc(want, func(a, b Entry) int { return CompareEntryKeys(&a.Key, &b.Key) })
		SortEntries(es)
		for i := range es {
			if !sameEntry(es[i], want[i]) {
				t.Fatalf("seed %d: entry #%d is %v, want %v", seed, i, es[i].Key, want[i].Key)
			}
		}
	}
}

// TestTableNearestRoundingTies: when two caps below the query lie at the
// same rounded distance, the lower cap wins, as it does in the frozen
// scan; the binary search must not stop at the cap next to the query.
func TestTableNearestRoundingTies(t *testing.T) {
	var tab Table
	oracle := make(map[string]Entry)
	for i, c := range []float64{math.Copysign(0, -1), 0, 1, 2, 3, 4e17} {
		e := Entry{Key: HistoryKey{App: "SP", Workload: "B", CapW: c, Region: "r"}, Perf: 1, Version: uint64(i + 1)}
		tab.Put(e)
		oracle[e.Key.String()] = e
	}
	for _, q := range []float64{1e17, 2e17, 3e17, 1, 0.5, 1.5, -1, math.Copysign(0, -1), 0, 5e17} {
		k := HistoryKey{App: "SP", Workload: "B", CapW: q, Region: "r"}
		got, gotDist, gotOK := tab.Nearest(k)
		want, wantDist, wantOK := oracleNearest(oracle, k)
		if gotOK != wantOK || !sameEntry(got, want) || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
			t.Errorf("Nearest(%g) = %v, %g, %v; oracle %v, %g, %v", q, got.Key, gotDist, gotOK, want.Key, wantDist, wantOK)
		}
	}
}
