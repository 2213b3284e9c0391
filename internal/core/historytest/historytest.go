// Package historytest is a conformance suite for arcs.History
// implementations. Every implementation — the in-memory MemHistory, the
// persistent internal/store, and the network-backed internal/storeclient —
// must expose identical Save/Load/Len/LoadNearest/LoadNeighbors
// semantics; running them all through this suite keeps the contract from
// drifting.
package historytest

import (
	"math"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// Factory returns a fresh, empty History for one subtest. Implementations
// needing cleanup should register it on t.
type Factory func(t *testing.T) arcs.History

// Run exercises the History contract: round-trips, key isolation, the
// keep-best-perf-on-duplicate-Save rule, canonical-key injectivity, and
// the nearest-cap and neighbour queries.
func Run(t *testing.T, newHistory Factory) {
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"}
	cfgA := arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8}
	cfgB := arcs.ConfigValues{Threads: 4, Schedule: ompt.ScheduleStatic, Chunk: 32}

	t.Run("RoundTrip", func(t *testing.T) {
		h := newHistory(t)
		if h.Len() != 0 {
			t.Fatalf("fresh history Len = %d", h.Len())
		}
		h.Save(k, cfgA, 1.5)
		got, ok := h.Load(k)
		if !ok || got != cfgA {
			t.Errorf("Load = %v, %v; want %v, true", got, ok, cfgA)
		}
		if h.Len() != 1 {
			t.Errorf("Len = %d, want 1", h.Len())
		}
	})

	t.Run("KeyIsolation", func(t *testing.T) {
		h := newHistory(t)
		h.Save(k, cfgA, 1.5)
		for _, other := range []arcs.HistoryKey{
			{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"},
			{App: "SP", Workload: "C", CapW: 70, Region: "x_solve"},
			{App: "SP", Workload: "B", CapW: 85, Region: "x_solve"},
			{App: "SP", Workload: "B", CapW: 70, Region: "y_solve"},
		} {
			if _, ok := h.Load(other); ok {
				t.Errorf("key %v must not alias %v", other, k)
			}
		}
	})

	t.Run("KeepBestOnDuplicate", func(t *testing.T) {
		h := newHistory(t)
		h.Save(k, cfgA, 2.0)
		h.Save(k, cfgB, 3.0) // worse perf: ignored
		if got, _ := h.Load(k); got != cfgA {
			t.Errorf("worse duplicate overwrote the best entry: %v", got)
		}
		h.Save(k, cfgB, 1.0) // better perf: replaces
		if got, _ := h.Load(k); got != cfgB {
			t.Errorf("better duplicate was not stored: %v", got)
		}
		if h.Len() != 1 {
			t.Errorf("duplicate Saves changed Len: %d", h.Len())
		}
	})

	t.Run("TieKeepsExisting", func(t *testing.T) {
		h := newHistory(t)
		h.Save(k, cfgA, 2.0)
		h.Save(k, cfgB, 2.0)
		if got, _ := h.Load(k); got != cfgA {
			t.Errorf("perf tie must keep the existing entry, got %v", got)
		}
	})

	t.Run("PipeInKeyFields", func(t *testing.T) {
		h := newHistory(t)
		k1 := arcs.HistoryKey{App: "a|b", Workload: "c", CapW: 70, Region: "r"}
		k2 := arcs.HistoryKey{App: "a", Workload: "b|c", CapW: 70, Region: "r"}
		h.Save(k1, cfgA, 1.0)
		h.Save(k2, cfgB, 2.0)
		if h.Len() != 2 {
			t.Fatalf("keys with | in fields collided: Len = %d", h.Len())
		}
		if got, ok := h.Load(k1); !ok || got != cfgA {
			t.Errorf("k1 = %v, %v", got, ok)
		}
		if got, ok := h.Load(k2); !ok || got != cfgB {
			t.Errorf("k2 = %v, %v", got, ok)
		}
	})

	t.Run("ZeroValueConfig", func(t *testing.T) {
		h := newHistory(t)
		h.Save(k, arcs.ConfigValues{}, 1.0)
		got, ok := h.Load(k)
		if !ok || got != (arcs.ConfigValues{}) {
			t.Errorf("default config must round-trip: %v, %v", got, ok)
		}
	})

	t.Run("SignedZeroCapsAreDistinctKeys", func(t *testing.T) {
		// 0 and -0 compare equal as numbers but are distinct canonical
		// keys ("0" and "-0"), so an exact Load must tell them apart.
		zero := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 0, Region: "x_solve"}
		negZero := zero
		negZero.CapW = math.Copysign(0, -1)
		h := newHistory(t)
		h.Save(zero, cfgA, 1.0)
		if got, ok := h.Load(negZero); ok {
			t.Errorf("Load(-0) after saving only 0 = %v, true; want a miss", got)
		}
		h.Save(negZero, cfgB, 2.0)
		if h.Len() != 2 {
			t.Fatalf("Len = %d after saving 0 and -0, want 2", h.Len())
		}
		if got, ok := h.Load(zero); !ok || got != cfgA {
			t.Errorf("Load(0) = %v, %v; want %v, true", got, ok, cfgA)
		}
		if got, ok := h.Load(negZero); !ok || got != cfgB {
			t.Errorf("Load(-0) = %v, %v; want %v, true", got, ok, cfgB)
		}
	})

	t.Run("LenCountsDistinctKeys", func(t *testing.T) {
		h := newHistory(t)
		for i, region := range []string{"r1", "r2", "r3"} {
			h.Save(arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: region},
				cfgA, float64(i+1))
		}
		if h.Len() != 3 {
			t.Errorf("Len = %d, want 3", h.Len())
		}
	})

	runFallback(t, newHistory)
	runNeighbors(t, newHistory)
}

// runFallback exercises the LoadNearest contract: exact hits at zero
// distance, nearest-cap answers on a miss, and the deterministic
// lower-cap preference on a distance tie.
func runFallback(t *testing.T, newHistory func(t *testing.T) arcs.History) {
	cfg60 := arcs.ConfigValues{Threads: 8, Schedule: ompt.ScheduleDynamic, Chunk: 4}
	cfg80 := arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8}
	key := func(cap float64) arcs.HistoryKey {
		return arcs.HistoryKey{App: "SP", Workload: "B", CapW: cap, Region: "x_solve"}
	}

	t.Run("FallbackExactHit", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key(60), cfg60, 1.0)
		cfg, dist, ok := h.LoadNearest(key(60))
		if !ok || cfg != cfg60 || dist != 0 {
			t.Errorf("LoadNearest(exact) = %v, %g, %v; want %v, 0, true", cfg, dist, ok, cfg60)
		}
	})

	t.Run("FallbackNearestCap", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key(60), cfg60, 1.0)
		h.Save(key(80), cfg80, 1.0)
		cfg, dist, ok := h.LoadNearest(key(75))
		if !ok || cfg != cfg80 || dist != 5 {
			t.Errorf("LoadNearest(75) = %v, %g, %v; want %v, 5, true", cfg, dist, ok, cfg80)
		}
	})

	t.Run("FallbackTiePrefersLowerCap", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key(60), cfg60, 1.0)
		h.Save(key(80), cfg80, 1.0)
		// 70 W is exactly 10 W from both stored caps: the lower cap must
		// win, deterministically (a lower-cap config is the safe choice
		// under a cap between the two).
		cfg, dist, ok := h.LoadNearest(key(70))
		if !ok || cfg != cfg60 || dist != 10 {
			t.Errorf("LoadNearest(70) = %v, %g, %v; want lower-cap %v, 10, true", cfg, dist, ok, cfg60)
		}
	})

	t.Run("FallbackSignedZeroTieByKey", func(t *testing.T) {
		// 0 and -0 tie on distance and cap; entry order (-0 sorts first)
		// must decide, not map order, in every fresh history.
		negZero := math.Copysign(0, -1)
		for i := 0; i < 50; i++ {
			h := newHistory(t)
			h.Save(key(0), cfg60, 1.0)
			h.Save(key(negZero), cfg80, 1.0)
			cfg, dist, ok := h.LoadNearest(key(10))
			if !ok || cfg != cfg80 || dist != 10 {
				t.Fatalf("history %d: LoadNearest(10) = %v, %g, %v; want the -0 entry's %v, 10, true",
					i, cfg, dist, ok, cfg80)
			}
		}
	})

	t.Run("FallbackContextMiss", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key(60), cfg60, 1.0)
		miss := arcs.HistoryKey{App: "BT", Workload: "B", CapW: 60, Region: "x_solve"}
		if _, _, ok := h.LoadNearest(miss); ok {
			t.Error("LoadNearest must not cross app boundaries")
		}
	})
}

// runNeighbors exercises the LoadNeighbors contract: ranked neighbour
// scans excluding the exact key, same-workload entries ahead of
// cross-workload ones, and the max bound.
func runNeighbors(t *testing.T, newHistory func(t *testing.T) arcs.History) {
	cfgN := func(threads int) arcs.ConfigValues {
		return arcs.ConfigValues{Threads: threads, Schedule: ompt.ScheduleDynamic, Chunk: 4}
	}
	key := func(workload string, cap float64) arcs.HistoryKey {
		return arcs.HistoryKey{App: "SP", Workload: workload, CapW: cap, Region: "x_solve"}
	}

	t.Run("NeighborsRankedByDistance", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key("B", 60), cfgN(6), 1.0)
		h.Save(key("B", 70), cfgN(7), 1.0) // the query context itself
		h.Save(key("B", 85), cfgN(8), 1.0)
		h.Save(key("C", 70), cfgN(9), 1.0) // other workload: ranked last
		h.Save(arcs.HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"}, cfgN(2), 1.0)

		ns := h.LoadNeighbors(key("B", 70), 10)
		if len(ns) != 3 {
			t.Fatalf("LoadNeighbors returned %d entries, want 3: %+v", len(ns), ns)
		}
		wantCaps := []float64{60, 85, 70}
		wantWl := []string{"B", "B", "C"}
		for i, n := range ns {
			if n.Key.CapW != wantCaps[i] || n.Key.Workload != wantWl[i] {
				t.Errorf("neighbor %d = %v, want workload %s cap %g", i, n.Key, wantWl[i], wantCaps[i])
			}
		}
		if ns[0].Dist != 10 || ns[1].Dist != 15 {
			t.Errorf("distances = %g, %g; want 10, 15", ns[0].Dist, ns[1].Dist)
		}
		if ns[2].Dist <= ns[1].Dist {
			t.Errorf("cross-workload neighbor must rank after same-workload ones: %g <= %g",
				ns[2].Dist, ns[1].Dist)
		}
	})

	t.Run("NeighborsRespectMax", func(t *testing.T) {
		h := newHistory(t)
		for i := 0; i < 6; i++ {
			h.Save(key("B", 50+float64(i)*5), cfgN(i+1), 1.0)
		}
		ns := h.LoadNeighbors(key("B", 72), 2)
		if len(ns) != 2 {
			t.Fatalf("LoadNeighbors(max=2) returned %d entries", len(ns))
		}
		if ns[0].Key.CapW != 70 || ns[1].Key.CapW != 75 {
			t.Errorf("nearest caps = %g, %g; want 70, 75", ns[0].Key.CapW, ns[1].Key.CapW)
		}
	})

	t.Run("NeighborsEmptyOnIsolatedContext", func(t *testing.T) {
		h := newHistory(t)
		h.Save(key("B", 70), cfgN(7), 1.0)
		if ns := h.LoadNeighbors(key("B", 70), 10); len(ns) != 0 {
			t.Errorf("a lone exact entry has no neighbours, got %+v", ns)
		}
	})
}
