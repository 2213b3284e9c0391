// Replay-format tests: the store reads exactly one WAL format (binary
// entry frames) and one snapshot format (snapshot.bin). Anything older
// must fail loudly — a refused Open or a reported corruption count —
// never come up silently empty.
package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/store"
)

// TestOpenRefusesLegacySnapshot: a directory still holding a pre-binary
// snapshot.json is refused with an error naming the file.
func TestOpenRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	legacy := `[{"key":{"app":"BT","workload":"A","cap_w":60,"region":"z"},"config":{"threads":4},"perf":2.5,"version":1}]`
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err == nil {
		st.Close()
		t.Fatal("Open accepted a directory with a legacy snapshot.json")
	}
	if !strings.Contains(err.Error(), "snapshot.json") {
		t.Fatalf("Open error %q does not name snapshot.json", err)
	}
}

// TestCorruptWALReportsSkippedBytes: a WAL of plain JSON lines — the
// oldest pre-binary format — is corruption to the binary replay. Every
// byte is skipped and counted, the count surfaces through Err and
// Health, and a valid frame after the garbage still replays.
func TestCorruptWALReportsSkippedBytes(t *testing.T) {
	dir := t.TempDir()
	lines := `{"key":{"app":"BT","workload":"A","cap_w":60,"region":"z"},"config":{"threads":4},"perf":2.5,"version":1}` + "\n" +
		`{"key":{"app":"BT","workload":"A","cap_w":60,"region":"y"},"config":{"threads":8},"perf":1.5,"version":1}` + "\n"
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}
	var enc codec.Encoder
	wal := enc.AppendEntry([]byte(lines), &codec.Entry{Key: k, Cfg: arcs.ConfigValues{Threads: 16}, Perf: 1.25, Version: 3})
	if err := os.WriteFile(filepath.Join(dir, store.WALName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("replayed %d entries, want only the binary frame", st.Len())
	}
	if e, ok := st.Get(k); !ok || e.Version != 3 || e.Perf != 1.25 {
		t.Fatalf("frame after corruption = %+v ok=%v", e, ok)
	}
	want := fmt.Sprintf("store: replay skipped %d corrupt WAL bytes", len(lines))
	if h := st.Health(); h.LastErr != want {
		t.Fatalf("Health().LastErr = %q, want %q", h.LastErr, want)
	}
	if err := st.Err(); err == nil || err.Error() != want {
		t.Fatalf("Err() = %v, want %q", err, want)
	}
}
