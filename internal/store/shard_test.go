package store

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	arcs "arcs/internal/core"
)

// Field pools for random stores: escaped separators and escape
// characters, so keys whose raw fields differ only in escaping land in
// the map side by side.
var (
	shardApps      = []string{"SP", "BT", `a|b`, `a\|b`}
	shardWorkloads = []string{"B", "C", `|`, `\`}
	shardRegions   = []string{"x_solve", `r|1`, `r\1`, ""}
	// Caps include both zeros (distinct canonical keys, equal values) and
	// steps that put queries at equal distance from two stored caps.
	shardCaps = []float64{0, math.Copysign(0, -1), 5, 50, 55, 60, 62.5, 70, 85}
)

// randomStore fills a store with n random entries drawn from the pools;
// the same cap recurs across workloads and contexts.
func randomStore(t *testing.T, r *rand.Rand, n int) *Store {
	t.Helper()
	s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	for i := 0; i < n; i++ {
		s.Save(randomKey(r), arcs.ConfigValues{Threads: 1 + r.Intn(32), Chunk: r.Intn(8)}, 1+r.Float64())
	}
	return s
}

func randomKey(r *rand.Rand) arcs.HistoryKey {
	return arcs.HistoryKey{
		App:      shardApps[r.Intn(len(shardApps))],
		Workload: shardWorkloads[r.Intn(len(shardWorkloads))],
		CapW:     shardCaps[r.Intn(len(shardCaps))],
		Region:   shardRegions[r.Intn(len(shardRegions))],
	}
}

// bruteNearest is GetNearest's contract spelled out over Entries(): the
// exact key if stored, else the context's entry at the least cap
// distance, ties to the lower cap and then the lower canonical key.
func bruteNearest(s *Store, k arcs.HistoryKey) (Entry, float64, bool) {
	var best Entry
	bestDist := math.Inf(1)
	found := false
	for _, e := range s.Entries() { // entry order: first of a tie is the lower key
		if e.Key.String() == k.String() {
			return e, 0, true
		}
		if e.Key.App != k.App || e.Key.Workload != k.Workload || e.Key.Region != k.Region {
			continue
		}
		d := math.Abs(e.Key.CapW - k.CapW)
		if d < bestDist || (d == bestDist && e.Key.CapW < best.Key.CapW) {
			best, bestDist, found = e, d, true
		}
	}
	if !found {
		return Entry{}, 0, false
	}
	return best, bestDist, true
}

// TestGetNearestMatchesScan: on seeded random stores, the one-shard
// GetNearest answers exactly what a scan of the whole table answers,
// for stored caps, caps between two stored ones (distance ties) and
// contexts the store does not hold.
func TestGetNearestMatchesScan(t *testing.T) {
	queryCaps := append([]float64{2.5, 52.5, 57.5, 66.25, 100, -1}, shardCaps...)
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomStore(t, r, 20+r.Intn(200))
		for q := 0; q < 200; q++ {
			k := randomKey(r)
			k.CapW = queryCaps[r.Intn(len(queryCaps))]
			got, gotDist, gotOK := s.GetNearest(k)
			want, wantDist, wantOK := bruteNearest(s, k)
			if gotOK != wantOK || got != want || gotDist != wantDist {
				t.Fatalf("seed %d: GetNearest(%v) = %+v, %g, %v; scan says %+v, %g, %v",
					seed, k, got, gotDist, gotOK, want, wantDist, wantOK)
			}
		}
	}
}

// TestStoreAnswersAsMemHistory: a store and a MemHistory fed the same
// saves hold one arcs.Table each (per shard for the store), so they
// answer every nearest-cap and neighbour query identically; only the
// store versions its records.
func TestStoreAnswersAsMemHistory(t *testing.T) {
	unversioned := func(e Entry) Entry { e.Version = 0; return e }
	queryCaps := append([]float64{2.5, 52.5, 57.5, 66.25, 100, -1}, shardCaps...)
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
		h := arcs.NewMemHistory()
		for i, n := 0, 20+r.Intn(300); i < n; i++ {
			k, cfg, perf := randomKey(r), arcs.ConfigValues{Threads: 1 + r.Intn(32)}, 1+r.Float64()
			s.Save(k, cfg, perf)
			h.Save(k, cfg, perf)
		}
		for q := 0; q < 100; q++ {
			k := randomKey(r)
			k.CapW = queryCaps[r.Intn(len(queryCaps))]
			se, sd, sok := s.GetNearest(k)
			hcfg, hd, hok := h.LoadNearest(k)
			if sok != hok || se.Cfg != hcfg || sd != hd {
				t.Fatalf("seed %d: nearest to %v: store %+v, %g, %v; MemHistory %v, %g, %v", seed, k, se, sd, sok, hcfg, hd, hok)
			}
			max := 1 + r.Intn(40)
			sns, hns := s.LoadNeighbors(k, max), h.LoadNeighbors(k, max)
			if len(sns) != len(hns) {
				t.Fatalf("seed %d: %d store neighbours of %v, %d MemHistory", seed, len(sns), k, len(hns))
			}
			for i := range sns {
				if sns[i].Key.String() != hns[i].Key.String() || unversioned(sns[i].Entry) != hns[i].Entry || sns[i].Dist != hns[i].Dist {
					t.Fatalf("seed %d: neighbour #%d of %v: store %+v, MemHistory %+v", seed, i, k, sns[i], hns[i])
				}
			}
		}
	}
}

// TestContextShard: every cap of a context lives in one shard, so the
// nearest-cap scan of that shard sees all of them; distinct contexts
// still spread over the shards.
func TestContextShard(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	used := map[*shard]bool{}
	for _, app := range shardApps {
		for _, wl := range shardWorkloads {
			for _, region := range shardRegions {
				ctx := arcs.HistoryKey{App: app, Workload: wl, Region: region}
				want := s.shard(ctx)
				used[want] = true
				for _, c := range append([]float64{40.5, 1e6, math.Inf(1)}, shardCaps...) {
					k := ctx
					k.CapW = c
					if got := s.shard(k); got != want {
						t.Fatalf("%v is not in the shard of its context's other caps", k)
					}
					s.Save(k, arcs.ConfigValues{Threads: 4}, 1)
				}
			}
		}
	}
	if len(used) < NumShards/2 {
		t.Fatalf("%d contexts use only %d of %d shards", len(shardApps)*len(shardWorkloads)*len(shardRegions), len(used), NumShards)
	}
	// The public view agrees: each context's entries come back from
	// exactly one ShardEntries index.
	home := map[arcs.HistoryKey]int{}
	for i := 0; i < NumShards; i++ {
		for _, e := range s.ShardEntries(i) {
			ctx := e.Key
			ctx.CapW = 0
			if j, ok := home[ctx]; ok && j != i {
				t.Fatalf("context %v split across shards %d and %d", ctx, j, i)
			}
			home[ctx] = i
		}
	}
}

// sortedByEntryKeys is the reference order: slices.SortFunc with
// arcs.CompareEntryKeys.
func sortedByEntryKeys(es []Entry) []Entry {
	out := slices.Clone(es)
	slices.SortFunc(out, func(a, b Entry) int { return arcs.CompareEntryKeys(&a.Key, &b.Key) })
	return out
}

// TestEntriesOrder: Entries and every ShardEntries come back in exactly
// entry order, and the shards re-sorted rebuild Entries. Besides the
// pools' escaped fields and both zeros, the stores hold caps whose text
// order differs from their numeric order ("100" < "7.5" < "70").
func TestEntriesOrder(t *testing.T) {
	wideCaps := []float64{7.5, 100, 125, 1000}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomStore(t, r, 50+r.Intn(500))
		for i := 0; i < 50; i++ {
			k := randomKey(r)
			k.CapW = wideCaps[r.Intn(len(wideCaps))]
			s.Save(k, arcs.ConfigValues{Threads: 1 + r.Intn(32)}, 1+r.Float64())
		}
		all := s.Entries()
		if want := sortedByEntryKeys(all); !reflect.DeepEqual(all, want) {
			t.Fatalf("seed %d: Entries not in entry order", seed)
		}
		var concat []Entry
		for i := 0; i < NumShards; i++ {
			sh := s.ShardEntries(i)
			if want := sortedByEntryKeys(sh); !reflect.DeepEqual(sh, want) {
				t.Fatalf("seed %d: ShardEntries(%d) not in entry order", seed, i)
			}
			concat = append(concat, sh...)
		}
		if got := sortedByEntryKeys(concat); !reflect.DeepEqual(got, all) {
			t.Fatalf("seed %d: re-sorted shards differ from Entries (%d vs %d entries)", seed, len(got), len(all))
		}
	}
}

// TestSnapshotAllocsFlat: a compaction's allocation count does not grow
// with the number of entries it writes.
func TestSnapshotAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
		fillBenchStore(s, n)
		if err := s.Snapshot(); err != nil { // warm the encoder's buffers
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A slack of two absorbs stray runtime allocations; anything that
	// scales with the table (growing appends, per-entry keys, a map
	// sized by the row count) adds dozens between these sizes.
	small, large := allocs(1024), allocs(8192)
	if large > small+2 {
		t.Fatalf("snapshot allocs grow with entries: %v at 1024, %v at 8192", small, large)
	}
}
