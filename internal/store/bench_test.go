// Benchmarks for the storage formats and the whole-table paths:
// WALAppend measures binary record construction (the write syscall is
// outside it); SnapshotReplay measures the full Open-and-replay path
// against a columnar snapshot and WALReplay against a WAL of a full
// table; StoreSnapshot measures one compaction, StoreGet one exact hit,
// GetNearest one nearest-cap miss and LoadNeighbors one neighbour scan
// in a table the size of a serving node's (LoadNeighborsTies one whose
// donors tie). All back rows of bench_baseline.json.
package store

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

var benchWALEntry = Entry{
	Key:     arcs.HistoryKey{App: "LULESH", Workload: "30", CapW: 72.5, Region: "CalcHourglassControlForElems"},
	Cfg:     arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8, FreqGHz: 2.4, Bind: ompt.BindSpread},
	Perf:    1.2345,
	Version: 17,
}

func BenchmarkWALAppend(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		var enc codec.Encoder
		e := benchWALEntry
		buf := enc.AppendEntry(nil, &e)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendEntry(buf[:0], &e)
		}
	})
}

// benchSnapshotDir writes a snapshot of n entries and returns the
// directory, ready for Open to replay.
func benchSnapshotDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = benchWALEntry
		entries[i].Key.CapW = float64(40 + i%60)
		entries[i].Key.Region = [...]string{"r0", "r1", "r2", "r3"}[i%4]
		entries[i].Key.App = [...]string{"SP", "BT", "LU", "MG"}[(i/4)%4]
		entries[i].Version = uint64(i + 1)
	}
	var enc codec.Encoder
	data := enc.AppendSnapshot(nil, entries)
	if err := os.WriteFile(filepath.Join(dir, SnapshotBinName), data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	return dir
}

func benchReplay(b *testing.B, dir string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() == 0 {
			b.Fatal("replayed nothing")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotReplay(b *testing.B) {
	const n = 2048
	b.Run("binary", func(b *testing.B) { benchReplay(b, benchSnapshotDir(b, n)) })
}

// benchTableEntries is the table size of the whole-table benchmarks:
// 2,048 contexts of 8 caps, as a node of arcsperf's preloaded fleet holds.
const benchTableEntries = 16384

// benchEntry is the i-th entry of a benchmark table: contexts of 8 caps
// each (50–85 W), spread over 8 apps, 4 workloads and regions r0, r1, ….
func benchEntry(i int) Entry {
	e := benchWALEntry
	ctx := i / 8
	e.Key.App = [...]string{"SP", "BT", "LU", "MG", "CG", "FT", "EP", "LULESH"}[ctx%8]
	e.Key.Workload = [...]string{"A", "B", "C", "D"}[(ctx/8)%4]
	e.Key.Region = "r" + strconv.Itoa(ctx/32)
	e.Key.CapW = float64(50 + 5*(i%8))
	e.Version = uint64(i + 1)
	return e
}

// fillBenchStore merges the first n benchmark entries into s.
func fillBenchStore(s *Store, n int) {
	for i := 0; i < n; i++ {
		s.Merge(benchEntry(i))
	}
}

func openBenchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	fillBenchStore(s, benchTableEntries)
	return s
}

// BenchmarkStoreSnapshot is one explicit compaction of a full table:
// collect, sort, encode, write, fsync, rename, fresh WAL. Its
// allocations must not grow with the table.
func BenchmarkStoreSnapshot(b *testing.B) {
	s := openBenchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay is Open over a WAL of a full table's records and no
// snapshot: the worst restart the size-ratio compaction trigger allows,
// since it compacts once the WAL reaches the table's size.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	fillBenchStore(s, benchTableEntries)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, WALName))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	benchReplay(b, dir)
}

// BenchmarkStoreGet is an exact hit: the warm lookup a job at a tuned
// context pays. It builds no key and allocates nothing.
func BenchmarkStoreGet(b *testing.B) {
	s := openBenchStore(b)
	k := arcs.HistoryKey{App: "LU", Workload: "C", CapW: 65, Region: "r40"}
	if _, ok := s.Get(k); !ok {
		b.Fatalf("Get(%v) missed", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(k)
	}
}

// BenchmarkGetNearest is a nearest-cap miss 2.5 W off a stored cap: the
// fallback lookup a job at an untuned cap pays.
func BenchmarkGetNearest(b *testing.B) {
	s := openBenchStore(b)
	k := arcs.HistoryKey{App: "LU", Workload: "C", CapW: 62.5, Region: "r40"}
	if _, d, ok := s.GetNearest(k); !ok || d != 2.5 {
		b.Fatalf("GetNearest(%v) = dist %g, ok %v; want a stored cap 2.5 W away", k, d, ok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetNearest(k)
	}
}

// BenchmarkLoadNeighbors is one transfer-seed scan in a table the size
// of a serving node's: the query's group read in every shard, then the
// donors ranked. The queried group adds SP/x_solve donors in two
// workloads at interleaved caps, so no two donors tie on distance and
// cap (BenchmarkLoadNeighborsTies has the ties).
func BenchmarkLoadNeighbors(b *testing.B) {
	s := openBenchStore(b)
	for i := 0; i < 8; i++ {
		e := benchWALEntry
		e.Key = arcs.HistoryKey{App: "SP", Workload: "B", CapW: float64(50 + 5*i), Region: "x_solve"}
		s.Merge(e)
		e.Key.Workload, e.Key.CapW = "C", float64(52+5*i)
		s.Merge(e)
	}
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 62.5, Region: "x_solve"}
	if ns := s.LoadNeighbors(k, 256); len(ns) != 16 {
		b.Fatalf("LoadNeighbors(%v) = %d donors, want 16", k, len(ns))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LoadNeighbors(k, arcs.DefaultTransferSeeds)
	}
}

// BenchmarkLoadNeighborsTies is the scan a realistic query pays: LU/C at
// 62.5 W in region r40 has 32 donors, the 8 caps of its own workload and
// of three others, and the cross-workload donors at each cap tie on
// distance and cap, so the ranking orders them by entry order (their
// workloads, as plain bytes). It builds no key, so its allocations (the
// donor slice's growth) do not depend on map order.
func BenchmarkLoadNeighborsTies(b *testing.B) {
	s := openBenchStore(b)
	k := arcs.HistoryKey{App: "LU", Workload: "C", CapW: 62.5, Region: "r40"}
	if ns := s.LoadNeighbors(k, 256); len(ns) != 32 {
		b.Fatalf("LoadNeighbors(%v) = %d donors, want 32", k, len(ns))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LoadNeighbors(k, arcs.DefaultTransferSeeds)
	}
}
