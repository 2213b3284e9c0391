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

// TestFailedCompactionBacksOff: a failed automatic compaction waits for
// another threshold's worth of appends, counted from the failure, before
// it tries again, instead of re-encoding the whole table on every append
// while the rename keeps failing. An explicit Snapshot still retries at
// once.
func TestFailedCompactionBacksOff(t *testing.T) {
	const floor, saves = 4, 40
	dir := t.TempDir()
	inj := faults.New(1)
	inj.Add(faults.Rule{Op: faults.OpRename, Kind: faults.Err, Match: store.SnapshotBinName})
	st, err := store.Open(dir, store.Options{SnapshotEvery: floor, FS: faults.NewFS(inj, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One key improved on every Save keeps the table below the floor, so
	// the trigger is the floor itself.
	k := tortureKeys(1)[0]
	perf := 100.0
	save := func(n int) {
		for i := 0; i < n; i++ {
			perf--
			st.Save(k, arcs.ConfigValues{Threads: 8}, perf)
		}
	}
	save(saves)
	if got := inj.Injected(faults.OpRename); got != saves/floor {
		t.Fatalf("%d Saves made %d snapshot attempts against a failing rename, want %d", saves, got, saves/floor)
	}
	if err := st.Err(); err == nil {
		t.Fatal("failed compaction not surfaced through Err")
	}
	if err := st.Snapshot(); err == nil {
		t.Fatal("explicit Snapshot succeeded despite the failing rename")
	}
	if got := inj.Injected(faults.OpRename); got != saves/floor+1 {
		t.Fatalf("explicit Snapshot made %d attempts, want it to retry at once", got-saves/floor)
	}

	// The disk heals: the next automatic compaction comes one threshold
	// after the last automatic failure, and it succeeds.
	inj.Clear()
	save(floor - 1)
	if h := st.Health(); h.Compactions != 0 {
		t.Fatalf("automatic compaction retried %d appends after a failure, want %d", floor-1, floor)
	}
	save(1)
	if h := st.Health(); h.Compactions != 1 || h.WALRecords != 0 {
		t.Fatalf("no compaction one threshold after the failure: %+v", h)
	}
	re, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e, ok := re.Get(k); !ok || e.Perf != perf {
		t.Fatalf("reopen after back-off: %+v (found %v), want perf %v", e, ok, perf)
	}
}

// TestCrashTortureAutoCompaction kills the filesystem at every byte
// offset of the snapshot temp file while an automatic compaction runs
// with the WAL past the floor (the size-ratio trigger fires at the table
// size, not at SnapshotEvery). At each offset every Save whose WAL
// append completed before the crash — including the one whose append
// triggered the compaction — must survive the reopen.
func TestCrashTortureAutoCompaction(t *testing.T) {
	const floor = 4
	keys := tortureKeys(12)
	// seed writes the starting directory: one compaction at the floor,
	// then eight more inserts, which stay in the WAL because they never
	// reach the growing table's size.
	seed := func(dir string) {
		st, err := store.Open(dir, store.Options{SnapshotEvery: floor})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			st.Save(k, arcs.ConfigValues{Threads: 2 + i}, 10)
		}
		if h := st.Health(); h.Compactions != 1 || h.WALRecords != len(keys)-floor {
			t.Fatalf("seed store: %+v, want one compaction and %d WAL records", h, len(keys)-floor)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// improve makes the floor's worth of Saves that take the WAL to the
	// table's size, so the last of them triggers the compaction.
	const improved = floor
	improve := func(st *store.Store) {
		for i := 0; i < improved; i++ {
			st.Save(keys[i], arcs.ConfigValues{Threads: 40 + i}, 5)
		}
	}

	// Reference run with no faults: the size of the snapshot the
	// compaction writes bounds the sweep.
	refDir := t.TempDir()
	seed(refDir)
	ref, err := store.Open(refDir, store.Options{SnapshotEvery: floor})
	if err != nil {
		t.Fatal(err)
	}
	improve(ref)
	if h := ref.Health(); h.Compactions != 1 || h.WALRecords != 0 {
		t.Fatalf("reference run: %+v, want one automatic compaction at %d WAL records", h, len(keys))
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(refDir, store.SnapshotBinName))
	if err != nil {
		t.Fatal(err)
	}
	total := fi.Size()

	for off := int64(0); off < total; off++ {
		dir := t.TempDir()
		seed(dir)
		inj := faults.New(1)
		inj.Add(faults.Rule{Op: faults.OpWrite, Kind: faults.Crash, Match: store.SnapshotBinName + ".tmp", Offset: off})
		fs := faults.NewFS(inj, nil)
		st, err := store.Open(dir, store.Options{SnapshotEvery: floor, FS: fs})
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		improve(st)
		_ = st.Err()
		_ = st.Close()
		if !fs.Crashed() {
			t.Fatalf("offset %d: crash never fired", off)
		}

		re, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("offset %d: reopen after crash: %v", off, err)
		}
		for i, k := range keys {
			e, ok := re.Get(k)
			want := arcs.ConfigValues{Threads: 2 + i}
			perf := 10.0
			if i < improved {
				want, perf = arcs.ConfigValues{Threads: 40 + i}, 5
			}
			if !ok || e.Cfg != want || e.Perf != perf {
				t.Fatalf("offset %d: acknowledged Save %d lost: %+v (found %v)", off, i, e, ok)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
	}
}
