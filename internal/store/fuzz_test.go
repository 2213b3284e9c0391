package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// FuzzStoreWAL mirrors core's FuzzLoadHistoryFile for the persistent
// store: arbitrary bytes in the WAL and in the columnar snapshot — the
// two files replay reads — must never panic Open, and whatever replay
// accepts must round-trip through snapshot + reload.
func FuzzStoreWAL(f *testing.F) {
	var enc codec.Encoder
	e1 := codec.Entry{
		Key:  arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x"},
		Cfg:  arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 1},
		Perf: 1.5, Version: 1,
	}
	e2 := codec.Entry{Key: arcs.HistoryKey{App: "a|b", Region: "r"}, Cfg: arcs.ConfigValues{Threads: 4}, Perf: 9, Version: 2}
	frame := enc.AppendEntry(nil, &e1)
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0x10
	snapshot := enc.AppendSnapshot(nil, []codec.Entry{e1, e2})

	f.Add(frame, []byte(nil))                  // valid entry frame
	f.Add(frame[:len(frame)-3], []byte(nil))   // torn final frame
	f.Add(flipped, []byte(nil))                // bit-flipped frame
	f.Add([]byte(nil), snapshot)               // valid columnar snapshot
	f.Add(append(flipped, frame...), snapshot) // corruption followed by a good frame
	f.Fuzz(func(t *testing.T, wal, snapshot []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALName), wal, 0o644); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, SnapshotBinName), snapshot, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			return
		}
		// The store must stay writable whatever it replayed.
		k := arcs.HistoryKey{App: "fuzz", Workload: "w", CapW: 70, Region: "r"}
		s.Save(k, arcs.ConfigValues{Threads: 8}, 0.5)
		if _, ok := s.Load(k); !ok {
			t.Fatalf("store not writable after replaying fuzz input")
		}
		accepted := s.Entries()
		// Round trip: snapshot, reload, compare entry-for-entry.
		if err := s.Snapshot(); err != nil {
			t.Fatalf("snapshot of replayed store failed: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close failed: %v", err)
		}
		s2, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("reload failed: %v", err)
		}
		defer s2.Close()
		reloaded := s2.Entries()
		if len(reloaded) != len(accepted) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(accepted), len(reloaded))
		}
		for _, e := range accepted {
			got, ok := s2.Get(e.Key)
			if !ok || got != e {
				t.Fatalf("entry %v lost or changed in round trip: %+v vs %+v", e.Key, e, got)
			}
		}
	})
}
