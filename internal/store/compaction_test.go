package store

import (
	"os"
	"strings"
	"testing"
)

// countingFS is OSFS counting the bytes written to every file whose name
// contains match.
type countingFS struct {
	FS
	match string
	n     *int64
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.Contains(name, c.match) {
		return f, err
	}
	return countingFile{File: f, n: c.n}, nil
}

type countingFile struct {
	File
	n *int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

// improve makes count improving Saves, cycling over the first n
// benchmark entries with a perf that falls on every call, so each one is
// accepted and appended to the WAL. from continues the sequence across
// calls.
func improve(s *Store, n, from, count int) {
	for j := from; j < from+count; j++ {
		e := benchEntry(j % n)
		s.Save(e.Key, e.Cfg, e.Perf-float64(j+1)*1e-6)
	}
}

// TestCompactionSizeRatio pins the size-ratio trigger: an automatic
// compaction runs once the WAL records since the last snapshot reach
// max(SnapshotEvery, live entries), so the snapshot bytes written per
// Save do not grow with the table, and a reopened store measures its
// replayed WAL against its replayed table.
func TestCompactionSizeRatio(t *testing.T) {
	const floor, n = 64, 200

	t.Run("threshold", func(t *testing.T) {
		s := openStore(t, t.TempDir(), Options{SnapshotEvery: floor})
		fillBenchStore(s, n)
		// The floor governed the small table: one compaction at 64
		// records. After it the WAL only holds the inserts since, which
		// stay below the growing table.
		if h := s.Health(); h.Compactions != 1 || h.WALRecords != n-floor {
			t.Fatalf("after filling %d entries: compactions %d, WAL records %d; want 1 and %d",
				n, h.Compactions, h.WALRecords, n-floor)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// Compactions so far: the automatic one and the explicit one.
		improve(s, n, 0, n-1)
		if h := s.Health(); h.Compactions != 2 || h.WALRecords != n-1 {
			t.Fatalf("%d improving Saves over %d entries: compactions %d, WAL records %d; want 2 and %d",
				n-1, n, h.Compactions, h.WALRecords, n-1)
		}
		improve(s, n, n-1, 1)
		if h := s.Health(); h.Compactions != 3 || h.WALRecords != 0 {
			t.Fatalf("%d improving Saves over %d entries: compactions %d, WAL records %d; want 3 and 0",
				n, n, h.Compactions, h.WALRecords)
		}
	})

	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{SnapshotEvery: floor})
		fillBenchStore(s, n)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		const k = 50
		improve(s, n, 0, k)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re := openStore(t, dir, Options{SnapshotEvery: floor})
		if h := re.Health(); h.Entries != n || h.WALRecords != k {
			t.Fatalf("reopened store: %d entries, %d WAL records; want %d and %d", h.Entries, h.WALRecords, n, k)
		}
		improve(re, n, k, n-k-1)
		if h := re.Health(); h.Compactions != 0 {
			t.Fatalf("reopened store compacted at %d WAL records over a replayed table of %d", h.WALRecords, n)
		}
		improve(re, n, n-1, 1)
		if h := re.Health(); h.Compactions != 1 || h.WALRecords != 0 {
			t.Fatalf("reopened store at %d WAL records: compactions %d, WAL records %d; want one compaction",
				n, h.Compactions, h.WALRecords)
		}
	})

	t.Run("bytes per save", func(t *testing.T) {
		perSave := func(n int) float64 {
			var written int64
			s := openStore(t, t.TempDir(), Options{FS: countingFS{FS: OSFS, match: SnapshotBinName, n: &written}})
			fillBenchStore(s, n)
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			written = 0
			saves := 2 * max(DefaultSnapshotEvery, n)
			improve(s, n, 0, saves)
			return float64(written) / float64(saves)
		}
		small, large := perSave(1024), perSave(benchTableEntries)
		if large > 2*small {
			t.Fatalf("snapshot bytes per Save grow with the table: %.0f at 1024 entries, %.0f at %d",
				small, large, benchTableEntries)
		}
	})
}
