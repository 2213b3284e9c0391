// Benchmarks for the storage formats and the whole-table paths:
// WALAppend measures binary record construction (the write syscall is
// outside it); SnapshotReplay measures the full Open-and-replay path
// against a columnar snapshot; StoreSnapshot measures one compaction and
// GetNearest one nearest-cap miss in a table the size of a serving
// node's. All back rows of bench_baseline.json.
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
		ce := codec.Entry(benchWALEntry)
		buf := enc.AppendEntry(nil, &ce)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendEntry(buf[:0], &ce)
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
	ces := make([]codec.Entry, len(entries))
	for i, e := range entries {
		ces[i] = codec.Entry(e)
	}
	var enc codec.Encoder
	data := enc.AppendSnapshot(nil, ces)
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

// fillBenchStore merges n distinct entries into s: contexts of 8 caps
// each (50–85 W), spread over 8 apps, 4 workloads and regions r0, r1, ….
func fillBenchStore(s *Store, n int) {
	for i := 0; i < n; i++ {
		e := benchWALEntry
		ctx := i / 8
		e.Key.App = [...]string{"SP", "BT", "LU", "MG", "CG", "FT", "EP", "LULESH"}[ctx%8]
		e.Key.Workload = [...]string{"A", "B", "C", "D"}[(ctx/8)%4]
		e.Key.Region = "r" + strconv.Itoa(ctx/32)
		e.Key.CapW = float64(50 + 5*(i%8))
		e.Version = uint64(i + 1)
		s.Merge(e)
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
