package arcs

import (
	"path/filepath"
	"testing"

	"arcs/internal/ompt"
)

func TestMemHistoryRoundTrip(t *testing.T) {
	h := NewMemHistory()
	k := HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	cfg := ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 1}
	h.Save(k, cfg, 1.5)
	got, ok := h.Load(k)
	if !ok || got != cfg {
		t.Errorf("Load = %v, %v", got, ok)
	}
	if _, ok := h.Load(HistoryKey{App: "SP", Workload: "B", CapW: 85, Region: "x_solve"}); ok {
		t.Errorf("different cap must be a different key")
	}
	if _, ok := h.Load(HistoryKey{App: "SP", Workload: "C", CapW: 70, Region: "x_solve"}); ok {
		t.Errorf("different workload must be a different key")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHistoryOverwrite(t *testing.T) {
	h := NewMemHistory()
	k := HistoryKey{App: "BT", Workload: "B", CapW: 115, Region: "compute_rhs"}
	h.Save(k, ConfigValues{Threads: 8}, 2.0)
	h.Save(k, ConfigValues{Threads: 24}, 1.0)
	got, _ := h.Load(k)
	if got.Threads != 24 {
		t.Errorf("overwrite failed: %v", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len after overwrite = %d", h.Len())
	}
}

func TestHistoryEntriesSorted(t *testing.T) {
	h := NewMemHistory()
	h.Save(HistoryKey{App: "b", Region: "r"}, ConfigValues{}, 1)
	h.Save(HistoryKey{App: "a", Region: "r"}, ConfigValues{}, 2)
	es := h.Entries()
	if len(es) != 2 || es[0].Key.App != "a" || es[1].Key.App != "b" {
		t.Errorf("entries not sorted: %+v", es)
	}
}

func TestHistoryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arcs-history.json")
	h := NewMemHistory()
	k1 := HistoryKey{App: "SP", Workload: "C", CapW: 115, Region: "compute_rhs"}
	k2 := HistoryKey{App: "LULESH", Workload: "45", CapW: 55, Region: "EvalEOSForElems"}
	h.Save(k1, ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8}, 3.25)
	h.Save(k2, ConfigValues{Threads: 4, Schedule: ompt.ScheduleStatic, Chunk: 32}, 0.001)
	if err := h.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	for _, k := range []HistoryKey{k1, k2} {
		want, _ := h.Load(k)
		got, ok := loaded.Load(k)
		if !ok || got != want {
			t.Errorf("key %v: got %v want %v", k, got, want)
		}
	}
}

func TestLoadHistoryFileErrors(t *testing.T) {
	if _, err := LoadHistoryFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Errorf("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistoryFile(bad); err == nil {
		t.Errorf("malformed file must error")
	}
}

func TestHistoryKeyString(t *testing.T) {
	k := HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	if got := k.String(); got != "SP|B|70|x_solve" {
		t.Errorf("key = %q", got)
	}
}

// Regression: keys containing the separator in app/workload/region names
// used to collide in the canonical form ("a|b","c" vs "a","b|c").
func TestHistoryKeyStringInjective(t *testing.T) {
	pairs := [][2]HistoryKey{
		{{App: "a|b", Workload: "c", CapW: 70, Region: "r"},
			{App: "a", Workload: "b|c", CapW: 70, Region: "r"}},
		{{App: "a", Workload: "b", CapW: 70, Region: "r|s"},
			{App: "a", Workload: "b|", CapW: 70, Region: "r|s"}},
		{{App: `a\`, Workload: "b", CapW: 70, Region: "r"},
			{App: "a", Workload: `\b`, CapW: 70, Region: "r"}},
		{{App: `a\|b`, Workload: "c", CapW: 70, Region: "r"},
			{App: `a\`, Workload: "b|c", CapW: 70, Region: "r"}},
	}
	for _, p := range pairs {
		if p[0].String() == p[1].String() {
			t.Errorf("keys %+v and %+v collide as %q", p[0], p[1], p[0].String())
		}
	}
	if got := (HistoryKey{App: "a|b", Workload: "c", CapW: 70, Region: "r"}).String(); got != `a\|b|c|70|r` {
		t.Errorf("escaped key = %q", got)
	}
}

func TestMemHistoryLoadNearest(t *testing.T) {
	h := NewMemHistory()
	mk := func(cap float64) HistoryKey {
		return HistoryKey{App: "SP", Workload: "B", CapW: cap, Region: "x_solve"}
	}
	h.Save(mk(55), ConfigValues{Threads: 8}, 1.0)
	h.Save(mk(85), ConfigValues{Threads: 16}, 1.0)
	h.Save(HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"}, ConfigValues{Threads: 2}, 1.0)

	if cfg, d, ok := h.LoadNearest(mk(85)); !ok || d != 0 || cfg.Threads != 16 {
		t.Errorf("exact hit: %v, %v, %v", cfg, d, ok)
	}
	if cfg, d, ok := h.LoadNearest(mk(80)); !ok || d != 5 || cfg.Threads != 16 {
		t.Errorf("nearest 80->85: %v, %v, %v", cfg, d, ok)
	}
	// Equidistant 55/85 from 70: the lower cap wins deterministically.
	if cfg, d, ok := h.LoadNearest(mk(70)); !ok || d != 15 || cfg.Threads != 8 {
		t.Errorf("tie-break: %v, %v, %v", cfg, d, ok)
	}
	// A different context never falls back across app/workload/region.
	if _, _, ok := h.LoadNearest(HistoryKey{App: "LU", Workload: "B", CapW: 70, Region: "x_solve"}); ok {
		t.Errorf("fallback must not cross contexts")
	}
}

// BenchmarkHistoryKeyString is the canonical key build every report,
// lookup and anti-entropy row pays; it must allocate only its result.
func BenchmarkHistoryKeyString(b *testing.B) {
	k := HistoryKey{App: "LULESH", Workload: "30", CapW: 72.5, Region: "CalcHourglassControlForElems"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(k.String()) == 0 {
			b.Fatal("empty key")
		}
	}
}
