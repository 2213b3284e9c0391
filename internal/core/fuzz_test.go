package arcs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadHistoryFile ensures arbitrary bytes never panic the history
// loader, and that anything it accepts can be saved and reloaded
// losslessly.
func FuzzLoadHistoryFile(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"key":{"app":"SP","workload":"B","cap_w":70,"region":"x_solve"},` +
		`"config":{"threads":16,"schedule":3,"chunk":1},"perf":1.5}]`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"key":{},"config":{"freq_ghz":1.5}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "h.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		h, err := LoadHistoryFile(path)
		if err != nil {
			return
		}
		// Round trip: anything accepted must save and reload identically.
		out := filepath.Join(dir, "h2.json")
		if err := h.SaveFile(out); err != nil {
			t.Fatalf("save of accepted history failed: %v", err)
		}
		h2, err := LoadHistoryFile(out)
		if err != nil {
			t.Fatalf("reload failed: %v", err)
		}
		if h2.Len() != h.Len() {
			t.Fatalf("round trip changed entry count: %d -> %d", h.Len(), h2.Len())
		}
		for _, e := range h.Entries() {
			got, ok := h2.Load(e.Key)
			if !ok || got != e.Cfg {
				t.Fatalf("entry %v lost in round trip", e.Key)
			}
		}
	})
}

// sprintfKey is the canonical key form as it was first written, with
// fmt: HistoryKey.String must reproduce it byte for byte, because ring
// placement, digests, snapshot order and every stored map key hang on it.
func sprintfKey(k HistoryKey) string {
	esc := strings.NewReplacer(`\`, `\\`, `|`, `\|`)
	return fmt.Sprintf("%s|%s|%g|%s",
		esc.Replace(k.App), esc.Replace(k.Workload), k.CapW, esc.Replace(k.Region))
}

// FuzzHistoryKeyString checks the append-built String against the
// Sprintf form on arbitrary fields and arbitrary cap bit patterns.
func FuzzHistoryKeyString(f *testing.F) {
	caps := []float64{
		0, math.Copysign(0, -1), 70, 72.5, -3.25, 0.1, 1.0 / 3, 1e-4, 1.234e-5,
		999999, 1e6, 1e21, 123456789012345678, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -2.2250738585072014e-308,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, c := range caps {
		f.Add("SP", "B", math.Float64bits(c), "x_solve")
	}
	f.Add(`a|b`, `c\d`, math.Float64bits(60), `|\|`)
	f.Add(`\`, `|`, math.Float64bits(55.5), ``)
	f.Add("", "", uint64(0x7ff8000000000001), "") // a non-canonical NaN
	f.Add("LULESH", "30", uint64(0xfff0000000000000), "CalcHourglass|Control\\ForElems")
	f.Fuzz(func(t *testing.T, app, workload string, capBits uint64, region string) {
		k := HistoryKey{App: app, Workload: workload, CapW: math.Float64frombits(capBits), Region: region}
		if got, want := k.String(), sprintfKey(k); got != want {
			t.Fatalf("String() = %q, want %q (cap bits %#x)", got, want, capBits)
		}
	})
}
