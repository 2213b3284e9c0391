// Crash-torture and snapshot-failure tests for the store's durability
// path. They live in an external test package because they drive the
// store through internal/faults, which itself imports the store.
package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/faults"
	"arcs/internal/store"
)

// tortureKeys builds n distinct keys with recognisable perfs.
func tortureKeys(n int) []arcs.HistoryKey {
	ks := make([]arcs.HistoryKey, n)
	for i := range ks {
		ks[i] = arcs.HistoryKey{App: "SP", Workload: "B", CapW: float64(50 + i), Region: fmt.Sprintf("r%02d", i)}
	}
	return ks
}

// TestCrashTortureEveryByteOffset kills the filesystem at every byte
// offset of the WAL and proves the two durability invariants at each
// one: every record whose line was fully written before the crash
// survives the reopen intact, and the record torn by the crash is never
// half-applied — it either replays byte-identical or not at all.
func TestCrashTortureEveryByteOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("byte-offset sweep is slow; skipped in -short")
	}
	keys := tortureKeys(8)
	perf := func(i int) float64 { return 10.0 - float64(i)/8 }

	// Reference run with no faults: record each save's WAL line length so
	// the sweep knows exactly which records must survive a given offset.
	refDir := t.TempDir()
	ref, err := store.Open(refDir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(refDir, store.WALName)
	lineEnds := make([]int64, len(keys)) // cumulative WAL size after save i
	for i, k := range keys {
		ref.Save(k, arcs.ConfigValues{Threads: 2 + i, Chunk: 8}, perf(i))
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		lineEnds[i] = fi.Size()
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	total := lineEnds[len(lineEnds)-1]

	for off := int64(0); off < total; off++ {
		dir := t.TempDir()
		inj := faults.New(1)
		inj.Add(faults.Rule{Op: faults.OpWrite, Kind: faults.Crash, Match: store.WALName, Offset: off})
		fs := faults.NewFS(inj, nil)

		st, err := store.Open(dir, store.Options{SnapshotEvery: -1, FS: fs})
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		for i, k := range keys {
			st.Save(k, arcs.ConfigValues{Threads: 2 + i, Chunk: 8}, perf(i))
		}
		_ = st.Err()
		_ = st.Close()
		if !fs.Crashed() {
			t.Fatalf("offset %d: crash never fired", off)
		}

		// Reboot: reopen the directory with a clean filesystem.
		re, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("offset %d: reopen after crash: %v", off, err)
		}
		committed := 0
		for _, end := range lineEnds {
			if end <= off {
				committed++
			}
		}
		for i, k := range keys {
			e, ok := re.Get(k)
			if i < committed {
				if !ok {
					t.Fatalf("offset %d: committed record %d lost", off, i)
				}
				if e.Perf != perf(i) || e.Cfg.Threads != 2+i {
					t.Fatalf("offset %d: record %d corrupted: %+v", off, i, e)
				}
			} else if i > committed {
				// Records after the torn one were never written at all.
				if ok {
					t.Fatalf("offset %d: record %d survived past the crash point", off, i)
				}
			} else if ok {
				// The torn record itself may only survive if the crash landed
				// exactly on its line boundary — then it must be intact.
				if e.Perf != perf(i) || e.Cfg.Threads != 2+i {
					t.Fatalf("offset %d: torn record %d half-applied: %+v", off, i, e)
				}
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
	}
}

// TestWALChecksumRejectsBitFlip flips every payload byte of a stored
// binary WAL record in turn. The frame still parses structurally (length
// and magic intact) but the CRC rejects it at replay, whatever byte was
// hit, so a corrupted record is never served.
func TestWALChecksumRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}
	st.Save(k, arcs.ConfigValues{Threads: 16}, 1.25)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, store.WALName)
	frame, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Frame layout: magic | kind | uvarint len | payload | 4-byte CRC.
	// Flip each payload byte (offset 3 .. len-5 for a one-record WAL with
	// a single-byte length prefix) and require replay to drop the record.
	for off := 3; off < len(frame)-4; off++ {
		flipped := bytes.Clone(frame)
		flipped[off] ^= 0x10
		if err := os.WriteFile(walPath, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if e, ok := st2.Get(k); ok {
			t.Fatalf("offset %d: bit-flipped record passed CRC verification: %+v", off, e)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotFailuresLeaveStateIntact injects fsync, write, and rename
// failures into Snapshot and verifies each failure leaves the previous
// snapshot and the WAL byte-for-byte untouched, with no temp file left
// behind — there is never a window where the data exists in neither file.
func TestSnapshotFailuresLeaveStateIntact(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	fs := faults.NewFS(inj, nil)
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := tortureKeys(4)
	for i, k := range keys {
		st.Save(k, arcs.ConfigValues{Threads: 2 + i}, float64(5-i))
	}
	// Establish a good snapshot, then append more WAL on top of it.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Save(keys[0], arcs.ConfigValues{Threads: 32}, 0.5)

	snapPath := filepath.Join(dir, store.SnapshotBinName)
	walPath := filepath.Join(dir, store.WALName)
	tmpPath := snapPath + ".tmp"
	wantSnap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wantWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		rule faults.Rule
	}{
		{"write", faults.Rule{Op: faults.OpWrite, Kind: faults.Err, Match: ".tmp", Count: 1}},
		{"short-write", faults.Rule{Op: faults.OpWrite, Kind: faults.ShortWrite, Match: ".tmp", Count: 1}},
		{"fsync", faults.Rule{Op: faults.OpSync, Kind: faults.Err, Match: ".tmp", Count: 1}},
		{"rename", faults.Rule{Op: faults.OpRename, Kind: faults.Err, Match: ".tmp", Count: 1}},
	}
	for _, tc := range cases {
		inj.Clear()
		inj.Add(tc.rule)
		if err := st.Snapshot(); err == nil {
			t.Fatalf("%s: Snapshot succeeded despite injected failure", tc.name)
		}
		_ = st.Err()
		gotSnap, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatalf("%s: snapshot unreadable after failed compaction: %v", tc.name, err)
		}
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Fatalf("%s: failed Snapshot modified the previous snapshot", tc.name)
		}
		gotWAL, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatalf("%s: WAL unreadable after failed compaction: %v", tc.name, err)
		}
		if !bytes.Equal(gotWAL, wantWAL) {
			t.Fatalf("%s: failed Snapshot modified the WAL", tc.name)
		}
		if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
			t.Fatalf("%s: temp snapshot left behind (stat err %v)", tc.name, err)
		}
	}

	// Faults lifted: the same Snapshot call now compacts and truncates.
	inj.Clear()
	if err := st.Snapshot(); err != nil {
		t.Fatalf("clean Snapshot failed: %v", err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after snapshot: %v size=%d", err, fi.Size())
	}
	newSnap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(newSnap, wantSnap) {
		t.Fatal("snapshot unchanged despite new WAL records")
	}
}

// TestDegradedModeAndSnapshotRecovery drives the store into degraded
// memory-only mode with persistent WAL failures and back out with a
// successful snapshot, checking Health at each step.
func TestDegradedModeAndSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	fs := faults.NewFS(inj, nil)
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := tortureKeys(6)
	st.Save(keys[0], arcs.ConfigValues{Threads: 4}, 3.0)

	inj.Add(faults.Rule{Op: faults.OpWrite, Kind: faults.Err, Match: store.WALName})
	for i := 1; i <= store.DefaultDegradeAfter; i++ {
		st.Save(keys[i], arcs.ConfigValues{Threads: 4 + i}, 3.0)
	}
	h := st.Health()
	if !h.Degraded || h.DegradedCause == "" {
		t.Fatalf("store not degraded after %d append failures: %+v", store.DefaultDegradeAfter, h)
	}
	// Serving continues from memory, and further Saves are counted dropped.
	st.Save(keys[4], arcs.ConfigValues{Threads: 9}, 3.0)
	if _, ok := st.Get(keys[4]); !ok {
		t.Fatal("degraded store refused an in-memory Save")
	}
	if h = st.Health(); h.DroppedSaves == 0 {
		t.Fatalf("dropped saves not counted: %+v", h)
	}
	if err := st.Err(); err == nil {
		t.Fatal("degradation not surfaced through Err")
	}

	// The disk heals; one successful Snapshot resumes persistence.
	inj.Clear()
	if err := st.Snapshot(); err != nil {
		t.Fatalf("recovery snapshot: %v", err)
	}
	if h = st.Health(); h.Degraded {
		t.Fatalf("store still degraded after successful snapshot: %+v", h)
	}
	st.Save(keys[5], arcs.ConfigValues{Threads: 11}, 3.0)
	re, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range keys {
		if _, ok := re.Get(k); !ok {
			t.Fatalf("entry %v lost across degrade/recover/reopen", k)
		}
	}
}
