package store

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
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
	for _, e := range s.Entries() { // canonical key order: first of a tie is the lower key
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

// sortedByString is the reference order: sort.Slice on Key.String().
func sortedByString(es []Entry) []Entry {
	out := make([]Entry, len(es))
	copy(out, es)
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// TestEntriesOrder: Entries and every ShardEntries come back in exactly
// canonical-key order, and the shards re-sorted rebuild Entries.
func TestEntriesOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomStore(t, r, 50+r.Intn(500))
		all := s.Entries()
		if want := sortedByString(all); !reflect.DeepEqual(all, want) {
			t.Fatalf("seed %d: Entries not in canonical key order", seed)
		}
		var concat []Entry
		for i := 0; i < NumShards; i++ {
			sh := s.ShardEntries(i)
			if want := sortedByString(sh); !reflect.DeepEqual(sh, want) {
				t.Fatalf("seed %d: ShardEntries(%d) not in canonical key order", seed, i)
			}
			concat = append(concat, sh...)
		}
		if got := sortedByString(concat); !reflect.DeepEqual(got, all) {
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
