// Benchmarks for the storage formats: WALAppend measures binary record
// construction (the write syscall is outside it); SnapshotReplay
// measures the full Open-and-replay path against a columnar snapshot.
// Both back rows of bench_baseline.json.
package store

import (
	"os"
	"path/filepath"
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
