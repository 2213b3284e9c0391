// Package determ is the determinism-analyzer corpus: wall-clock reads,
// global math/rand draws, and map-order leaks must be caught; seeded
// RNGs, sorted iteration, and suppressed lines must pass.
package determ

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"
)

func wallClock() int64 {
	t := time.Now()    // want determinism
	d := time.Since(t) // want determinism
	return int64(d)
}

func clockAsValue() func() time.Time {
	return time.Now // want determinism
}

func globalRand() int {
	return rand.Intn(10) // want determinism
}

func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // ok: explicitly seeded instance
	return rng.Float64()
}

func emitsMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(os.Stderr, "%s=%d\n", k, v) // want determinism
	}
}

// history is a sink shaped like arcs.History: Save calls reach the
// store in call order.
type history interface {
	Save(key string, perf float64)
}

// saveBests is the shape of a tuner that persists per-region bests
// straight out of its region map.
func saveBests(h history, bests map[string]float64) {
	for region, perf := range bests {
		h.Save(region, perf) // want determinism
	}
}

func saveBestsSorted(h history, bests map[string]float64) {
	names := make([]string, 0, len(bests))
	for region := range bests {
		names = append(names, region) // ok: sorted below
	}
	sort.Strings(names)
	for _, region := range names {
		h.Save(region, bests[region]) // ok: slice order
	}
}

func unsortedAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want determinism
	}
	return out
}

func sortedAppend(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted below
	}
	sort.Strings(keys)
	return keys
}

func orderInsensitive(m map[string]int) int {
	sum := 0
	for _, v := range m { // ok: reduction is order-independent
		sum += v
	}
	return sum
}

func suppressed() time.Time {
	return time.Now() //arcslint:ignore determinism corpus: wall clock explicitly allowed here
}
