package store

// Property tests for the replicated merge. Fleet replication relies on
// one invariant: Merge under the Supersedes order is a join — applying
// any multiset of entries, in any order, with any duplication, leaves
// every replica holding the same single winner per key. These tests
// state that invariant directly (commutativity, associativity,
// idempotence) and then fuzz it with arbitrary interleavings.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// randEntry draws an entry over a deliberately tiny value space so that
// version ties, perf ties, and full duplicates all occur often.
func randEntry(r *rand.Rand) Entry {
	return Entry{
		Key: testKey([]string{"x", "y", "z"}[r.Intn(3)], float64(50+10*r.Intn(2))),
		Cfg: arcs.ConfigValues{
			Threads:  1 + r.Intn(4),
			Schedule: ompt.ScheduleKind(r.Intn(3)),
			Chunk:    r.Intn(3) * 8,
			FreqGHz:  []float64{0, 2.4}[r.Intn(2)],
			Bind:     ompt.BindKind(r.Intn(2)),
		},
		Perf:    []float64{1, 2, 4}[r.Intn(3)],
		Version: uint64(1 + r.Intn(4)),
	}
}

// mergeAll folds a sequence of entries into a fresh store and returns
// its final sorted state.
func mergeAll(t *testing.T, entries []Entry) []Entry {
	t.Helper()
	s := openStore(t, t.TempDir(), Options{})
	for _, e := range entries {
		s.Merge(e)
	}
	return s.Entries()
}

// TestMergeIsJoin: for random multisets of entries, every permutation
// (commutativity + associativity, since application is a left fold) and
// every duplication (idempotence) of the merge sequence converges to
// the same per-key winner, and that winner is the Supersedes-maximum of
// the multiset.
func TestMergeIsJoin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		entries := make([]Entry, 2+r.Intn(10))
		for i := range entries {
			entries[i] = randEntry(r)
		}

		// Expected winner per key: fold Supersedes over the multiset.
		want := map[string]Entry{}
		for _, e := range entries {
			if old, ok := want[e.Key.String()]; !ok || Supersedes(e, old) {
				want[e.Key.String()] = e
			}
		}

		base := mergeAll(t, entries)
		for _, got := range base {
			if w := want[got.Key.String()]; w != got {
				t.Fatalf("trial %d: key %v: merged %+v, want Supersedes-max %+v", trial, got.Key, got, w)
			}
		}
		if len(base) != len(want) {
			t.Fatalf("trial %d: %d keys stored, want %d", trial, len(base), len(want))
		}

		// Keep-best: no merge order loses the best perf offered for a key.
		for _, got := range base {
			for _, e := range entries {
				if e.Key == got.Key && e.Perf < got.Perf {
					t.Fatalf("trial %d: key %v: merged perf %v, but %v was offered", trial, got.Key, got.Perf, e.Perf)
				}
			}
		}

		// Commutativity/associativity: random reorderings converge
		// identically.
		for p := 0; p < 3; p++ {
			perm := make([]Entry, len(entries))
			for i, j := range r.Perm(len(entries)) {
				perm[i] = entries[j]
			}
			if got := mergeAll(t, perm); !reflect.DeepEqual(got, base) {
				t.Fatalf("trial %d: permutation diverged:\n got %+v\nwant %+v", trial, got, base)
			}
		}

		// Idempotence: duplicating every entry (and replaying the whole
		// sequence twice) changes nothing.
		doubled := append(append([]Entry{}, entries...), entries...)
		if got := mergeAll(t, doubled); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: duplication diverged:\n got %+v\nwant %+v", trial, got, base)
		}
	}
}

// TestCrossMergeConverges: two stores accept different interleavings of
// Saves for the same keys (each authoring its own versions), then
// exchange entries in both directions — the bidirectional merge must
// leave both stores byte-identical. This is one anti-entropy round
// between two divergent replicas.
func TestCrossMergeConverges(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		a := openStore(t, t.TempDir(), Options{})
		b := openStore(t, t.TempDir(), Options{})
		for i := 0; i < 12; i++ {
			e := randEntry(r)
			if r.Intn(2) == 0 {
				a.Save(e.Key, e.Cfg, e.Perf)
			} else {
				b.Save(e.Key, e.Cfg, e.Perf)
			}
		}
		for _, e := range a.Entries() {
			b.Merge(e)
		}
		for _, e := range b.Entries() {
			a.Merge(e)
		}
		ae, be := a.Entries(), b.Entries()
		if !reflect.DeepEqual(ae, be) {
			t.Fatalf("trial %d: replicas diverged after bidirectional merge:\n a %+v\n b %+v", trial, ae, be)
		}
	}
}

// TestMergeKeepsBestAtLowerVersion: versions are authored per owner, so
// an owner that missed updates can author the better result at the
// lower version. A acknowledges 2.0 (v1), B merges it, A improves twice
// to 1.67 (v3) while B independently improves to 1.38 (v2). After the
// replicas cross-merge, both must hold B's acknowledged 1.38.
func TestMergeKeepsBestAtLowerVersion(t *testing.T) {
	a := openStore(t, t.TempDir(), Options{})
	b := openStore(t, t.TempDir(), Options{})
	k := testKey("r19", 70)
	a.Save(k, arcs.ConfigValues{Threads: 4}, 2.0)
	e, _ := a.Get(k)
	b.Merge(e)
	a.Save(k, arcs.ConfigValues{Threads: 8}, 1.9)
	a.Save(k, arcs.ConfigValues{Threads: 16}, 1.67)
	b.Save(k, arcs.ConfigValues{Threads: 32}, 1.38)
	if got, _ := b.Get(k); got.Version != 2 {
		t.Fatalf("B authored version %d, want 2", got.Version)
	}
	for _, e := range a.Entries() {
		b.Merge(e)
	}
	for _, e := range b.Entries() {
		a.Merge(e)
	}
	want := Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 32}, Perf: 1.38, Version: 2}
	for name, s := range map[string]*Store{"A": a, "B": b} {
		if got, _ := s.Get(k); got != want {
			t.Errorf("store %s holds %+v after cross-merge, want the acknowledged best %+v", name, got, want)
		}
	}
}

// TestMergeRejectsNonFinite: non-finite perfs are rejected exactly as
// Save rejects them, and surface through Err.
func TestMergeRejectsNonFinite(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	for _, perf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s.Merge(Entry{Key: testKey("r", 60), Perf: perf, Version: 1}) {
			t.Fatalf("Merge accepted non-finite perf %v", perf)
		}
	}
	if s.Err() == nil {
		t.Fatal("non-finite merge did not surface through Err")
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d entries after rejected merges", s.Len())
	}
}

// TestMergePersists: an accepted Merge writes the entry, version
// included, to the WAL — a restart replays it verbatim.
func TestMergePersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Key: testKey("r", 60), Cfg: arcs.ConfigValues{Threads: 8}, Perf: 2.5, Version: 42}
	if !s.Merge(e) {
		t.Fatal("merge into empty store rejected")
	}
	_ = s.Close()
	re := openStore(t, dir, Options{})
	got, ok := re.Get(e.Key)
	if !ok || got != e {
		t.Fatalf("after replay got %+v (ok=%v), want %+v", got, ok, e)
	}
}

// TestDigest: the per-key versions the shard walk reports (what
// fleet.BuildDigest summarises) match what Save assigned, and
// ShardEntries partitions the same records Entries returns.
func TestDigest(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	k1, k2 := testKey("r1", 60), testKey("r2", 60)
	s.Save(k1, arcs.ConfigValues{Threads: 4}, 3.0)
	s.Save(k1, arcs.ConfigValues{Threads: 8}, 2.0) // accepted: version 2
	s.Save(k1, arcs.ConfigValues{Threads: 2}, 9.0) // rejected: no version bump
	s.Save(k2, arcs.ConfigValues{Threads: 4}, 1.0)

	var fromShards []Entry
	got := map[string]uint64{}
	for i := 0; i < NumShards; i++ {
		for _, e := range s.ShardEntries(i) {
			fromShards = append(fromShards, e)
			got[e.Key.String()] = e.Version
		}
	}
	want := map[string]uint64{k1.String(): 2, k2.String(): 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard versions = %v, want %v", got, want)
	}
	if len(fromShards) != 2 {
		t.Fatalf("shards hold %d entries, want 2", len(fromShards))
	}
	if s.ShardEntries(-1) != nil || s.ShardEntries(NumShards) != nil {
		t.Fatal("out-of-range shard index did not return nil")
	}
}

// FuzzMergeInterleaving: arbitrary bytes decode into a multiset of
// entries; applying it forwards, backwards, and deduplicated-last must
// converge to the same state. This is the join invariant under inputs
// no human thought to write.
func FuzzMergeInterleaving(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []Entry
		for len(data) >= 6 && len(entries) < 32 {
			entries = append(entries, Entry{
				Key: testKey(string(rune('a'+data[0]%4)), float64(40+data[1]%3)),
				Cfg: arcs.ConfigValues{
					Threads: int(data[2] % 8),
					Chunk:   int(data[3] % 4),
				},
				Perf:    1 + float64(binary.LittleEndian.Uint16(data[4:6])%64),
				Version: uint64(1 + data[0]%8),
			})
			data = data[6:]
		}
		if len(entries) == 0 {
			return
		}
		forward := mergeAll(t, entries)
		reversed := make([]Entry, len(entries))
		for i, e := range entries {
			reversed[len(entries)-1-i] = e
		}
		if got := mergeAll(t, reversed); !reflect.DeepEqual(got, forward) {
			t.Fatalf("reverse order diverged:\n got %+v\nwant %+v", got, forward)
		}
		if got := mergeAll(t, append(reversed, entries...)); !reflect.DeepEqual(got, forward) {
			t.Fatalf("doubled interleaving diverged:\n got %+v\nwant %+v", got, forward)
		}
	})
}
