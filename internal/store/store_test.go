package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/core/historytest"
	"arcs/internal/ompt"
)

// countWALFrames walks a binary WAL and counts complete frames.
func countWALFrames(t *testing.T, wal []byte) int {
	t.Helper()
	n := 0
	for pos := 0; pos < len(wal); {
		_, _, fn, err := codec.Frame(wal[pos:])
		if err != nil {
			t.Fatalf("WAL frame %d undecodable at offset %d: %v", n, pos, err)
		}
		pos += fn
		n++
	}
	return n
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testKey(region string, capW float64) arcs.HistoryKey {
	return arcs.HistoryKey{App: "SP", Workload: "B", CapW: capW, Region: region}
}

// TestStoreConformance runs the shared History contract suite: the store
// must behave exactly like MemHistory.
func TestStoreConformance(t *testing.T) {
	historytest.Run(t, func(t *testing.T) arcs.History {
		return openStore(t, t.TempDir(), Options{})
	})
}

// TestReplayAfterCrash: entries written before an unclean shutdown (no
// Close, file handle simply abandoned) are served after reopen.
func TestReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8}
	s.Save(testKey("x_solve", 70), cfg, 1.5)
	s.Save(testKey("y_solve", 70), arcs.ConfigValues{Threads: 4}, 2.5)
	// No Close: simulate a crash. The WAL was appended synchronously.

	s2 := openStore(t, dir, Options{})
	if s2.Len() != 2 {
		t.Fatalf("replayed %d entries, want 2", s2.Len())
	}
	got, ok := s2.Load(testKey("x_solve", 70))
	if !ok || got != cfg {
		t.Errorf("Load after replay = %v, %v", got, ok)
	}
}

// TestReplayTornTail: a crash mid-append leaves a torn final frame;
// replay must keep every record before it, and a torn tail is an
// expected crash artefact, not corruption worth reporting.
func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Save(testKey("a", 70), arcs.ConfigValues{Threads: 8}, 1.0)
	s.Save(testKey("b", 70), arcs.ConfigValues{Threads: 16}, 1.0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record.
	var enc codec.Encoder
	torn := enc.AppendEntry(nil, &codec.Entry{Key: testKey("c", 70), Cfg: arcs.ConfigValues{Threads: 2}, Perf: 1, Version: 1})
	f, err := os.OpenFile(filepath.Join(dir, WALName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, Options{})
	if s2.Len() != 2 {
		t.Errorf("torn tail dropped whole WAL: %d entries, want 2", s2.Len())
	}
	if err := s2.Err(); err != nil {
		t.Errorf("torn tail reported as corruption: %v", err)
	}
	// And the store keeps working after recovering a torn WAL.
	s2.Save(testKey("c", 70), arcs.ConfigValues{Threads: 2}, 1.0)
	if s2.Len() != 3 {
		t.Errorf("post-recovery save failed: %d", s2.Len())
	}
}

// TestVersionsMonotonic: each accepted update bumps the per-key version;
// rejected (worse-perf) saves do not.
func TestVersionsMonotonic(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	k := testKey("r", 70)
	s.Save(k, arcs.ConfigValues{Threads: 8}, 3.0)
	e, _ := s.Get(k)
	if e.Version != 1 {
		t.Fatalf("first version = %d", e.Version)
	}
	s.Save(k, arcs.ConfigValues{Threads: 16}, 4.0) // worse: rejected
	if e, _ = s.Get(k); e.Version != 1 {
		t.Errorf("rejected save bumped version to %d", e.Version)
	}
	s.Save(k, arcs.ConfigValues{Threads: 16}, 2.0) // better: accepted
	if e, _ = s.Get(k); e.Version != 2 {
		t.Errorf("accepted save version = %d, want 2", e.Version)
	}
}

// TestSnapshotCompaction: crossing SnapshotEvery truncates the WAL into a
// snapshot, and the compacted store reopens identically.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Save(testKey(fmt.Sprintf("r%d", i), 70), arcs.ConfigValues{Threads: 8}, float64(i+1))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	if n := countWALFrames(t, wal); n >= 10 {
		t.Errorf("WAL never compacted: %d records", n)
	}
	snap, err := os.ReadFile(filepath.Join(dir, SnapshotBinName))
	if err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	kind, payload, _, err := codec.Frame(snap)
	if err != nil || kind != codec.KindSnapshot {
		t.Fatalf("snapshot not a valid frame: kind=%#x err=%v", kind, err)
	}
	var dec codec.Decoder
	if _, err := dec.DecodeSnapshot(payload); err != nil {
		t.Fatalf("snapshot payload undecodable: %v", err)
	}
	before := s.Entries()
	s.Close()

	s2 := openStore(t, dir, Options{})
	after := s2.Entries()
	if len(after) != len(before) {
		t.Fatalf("reopen after compaction: %d entries, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("entry %d changed across compaction: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestSnapshotSurvivesWALLoss: after an explicit Snapshot the WAL can
// vanish entirely and the store still serves every entry.
func TestSnapshotSurvivesWALLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.Save(testKey("r", 70), arcs.ConfigValues{Threads: 8}, 1.0)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, WALName)); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if s2.Len() != 1 {
		t.Errorf("snapshot alone should restore the store: %d entries", s2.Len())
	}
}

func TestNearestCapFallback(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	s.Save(testKey("r", 55), arcs.ConfigValues{Threads: 8}, 1.0)
	s.Save(testKey("r", 85), arcs.ConfigValues{Threads: 16}, 1.0)

	if _, d, ok := s.LoadNearest(testKey("r", 85)); !ok || d != 0 {
		t.Errorf("exact: d=%v ok=%v", d, ok)
	}
	cfg, d, ok := s.LoadNearest(testKey("r", 80))
	if !ok || d != 5 || cfg.Threads != 16 {
		t.Errorf("nearest: %v d=%v ok=%v", cfg, d, ok)
	}
	// Tie at 70 (15 W both ways) resolves to the lower cap.
	if cfg, _, _ := s.LoadNearest(testKey("r", 70)); cfg.Threads != 8 {
		t.Errorf("tie-break config = %v", cfg)
	}
	if _, _, ok := s.LoadNearest(testKey("other_region", 70)); ok {
		t.Errorf("fallback must not cross regions")
	}
}

// TestNonFiniteRejected: NaN/Inf perf cannot be serialised and must not
// poison the store.
func TestNonFiniteRejected(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	nan := 0.0
	s.Save(testKey("r", 70), arcs.ConfigValues{}, nan/nan)
	if s.Len() != 0 {
		t.Errorf("NaN perf stored")
	}
	if err := s.Err(); err == nil {
		t.Errorf("rejected save must surface through Err")
	}
}

func TestSaveAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	s.Save(testKey("r", 70), arcs.ConfigValues{}, 1.0)
	if err := s.Err(); err == nil {
		t.Errorf("save after close must surface through Err")
	}
	if err := s.Snapshot(); err == nil {
		t.Errorf("snapshot after close must fail")
	}
}

// TestConcurrentSaves hammers overlapping keys from many goroutines (run
// under -race in CI) and checks the keep-best invariant and WAL
// integrity afterwards.
func TestConcurrentSaves(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				region := fmt.Sprintf("r%d", i%8) // heavy key overlap
				perf := float64(1 + (g*perG+i)%97)
				s.Save(testKey(region, 70), arcs.ConfigValues{Threads: 2 + g%30}, perf)
				s.Load(testKey(region, 70))
				s.LoadNearest(testKey(region, 75))
			}
		}(g)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
	// Every surviving entry must hold the global best perf (1.0 appears
	// for every residue class since 97 > perG*goroutines/97 cycles fully).
	for _, e := range s.Entries() {
		if e.Perf != 1 {
			t.Errorf("entry %v kept perf %v, want the best (1)", e.Key, e.Perf)
		}
	}
	before := s.Entries()
	s.Close()
	s2 := openStore(t, dir, Options{})
	after := s2.Entries()
	if len(after) != len(before) {
		t.Fatalf("replay after concurrent run: %d entries, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("entry %d differs after replay: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestNeighborsMatchLoadNeighbors: the /v1/neighbors records and the
// History view come from one scan, so they must list the same contexts
// in the same order — distance, then the lower cap, then the key — and
// each record must be its stored entry, version included. The caps
// put two donors at every distance and cross-workload donors after all
// same-workload ones.
func TestNeighborsMatchLoadNeighbors(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	cfg := arcs.ConfigValues{Threads: 8, Schedule: ompt.ScheduleDynamic, Chunk: 4}
	for i, capW := range []float64{50, 60, 65, 70, 75, 80, 90} {
		for _, wl := range []string{"B", "C"} {
			for _, region := range []string{"x_solve", "y_solve"} {
				k := arcs.HistoryKey{App: "BT", Workload: wl, CapW: capW, Region: region}
				s.Save(k, cfg, float64(i+1))
				if capW == 60 {
					s.Save(k, cfg, 0.5) // a second version
				}
			}
		}
	}
	k := arcs.HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"}
	for _, max := range []int{0, 1, 3, 8, 100} {
		recs, ns := s.Neighbors(k, max), s.LoadNeighbors(k, max)
		if len(recs) != len(ns) {
			t.Fatalf("max %d: %d records, %d neighbours", max, len(recs), len(ns))
		}
		for i, r := range recs {
			n := ns[i]
			if r.Key != n.Key || r.Cfg != n.Cfg || r.Perf != n.Perf || r.Dist != n.Dist { //arcslint:ignore floatcmp both views copy the same stored floats
				t.Errorf("max %d #%d: record %+v, neighbour %+v", max, i, r, n)
			}
			if e, ok := s.Get(r.Key); !ok || !reflect.DeepEqual(e, r.Entry) {
				t.Errorf("max %d #%d: record %+v, stored %+v", max, i, r.Entry, e)
			}
			if i > 0 && !arcs.NeighborLess(&ns[i-1], &ns[i]) {
				t.Errorf("max %d: #%d %v ranks after #%d %v", max, i-1, ns[i-1].Key, i, ns[i].Key)
			}
		}
	}
	want := []float64{65, 75, 60, 80, 50, 90}
	ns := s.LoadNeighbors(k, 100)
	if len(ns) != 13 {
		t.Fatalf("%d neighbours, want 6 same-workload and 7 cross-workload", len(ns))
	}
	for i, capW := range want {
		if ns[i].Key.Workload != "B" || ns[i].Key.CapW != capW { //arcslint:ignore floatcmp caps are stored verbatim
			t.Errorf("#%d is %v, want workload B at %g W", i, ns[i].Key, capW)
		}
	}
	if ns[6].Key.Workload != "C" || ns[6].Key.CapW != 70 { //arcslint:ignore floatcmp caps are stored verbatim
		t.Errorf("first cross-workload donor is %v, want workload C at 70 W", ns[6].Key)
	}
}
