package evalcache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func key(region, cfg string, cap float64) Key {
	return Key{Arch: "Crill", App: "sp", Workload: "C", Region: region, CapW: cap, Config: cfg}
}

func TestDoMemoises(t *testing.T) {
	c := New()
	k := key("rhs", "8, static", 115)
	var calls atomic.Int64
	f := func() (float64, error) { calls.Add(1); return 2.5, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Do(k, f)
		if err != nil || v != 2.5 {
			t.Fatalf("Do = %g, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	// Distinct cap, same everything else: distinct entry.
	if _, err := c.Do(key("rhs", "8, static", 55), f); err != nil || calls.Load() != 2 {
		t.Errorf("cap 55 aliased cap 115: %d computes, err %v", calls.Load(), err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 4 {
		t.Errorf("stats = %+v; want 2 misses, 4 hits", st)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New()
	k := key("rhs", "8, static", 115)
	boom := errors.New("boom")
	if _, err := c.Do(k, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, err := c.Do(k, func() (float64, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("retry Do = %g, %v", v, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v; want 1 error, 1 entry", st)
	}
}

// TestDoSingleFlight: concurrent Do calls on one key run the compute
// function exactly once; everyone shares the result. Run under -race.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	k := key("rhs", "32, guided, 4", 85)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	results := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(k, func() (float64, error) {
				calls.Add(1)
				<-gate // hold the flight open so the others pile up
				return 7.5, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let every worker reach Do before releasing the one compute.
	for c.Stats().InFlight == 0 {
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	for i, v := range results {
		if v != 7.5 {
			t.Errorf("worker %d got %g", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v; want 1 miss, 0 in flight", st)
	}
	if st.Dedups+st.Hits != workers-1 {
		t.Errorf("dedups+hits = %d, want %d", st.Dedups+st.Hits, workers-1)
	}
}

// TestConcurrentDistinctKeys: heavy mixed traffic over many keys stays
// consistent (the -race workhorse).
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("r%d", i%17), fmt.Sprintf("cfg%d", i%5), float64(55+5*(i%3)))
				want := float64(i%17*100 + i%5*10 + i%3)
				v, err := c.Do(k, func() (float64, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("worker %d: Do = %g, %v; want %g", w, v, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// (i mod 17, i mod 5, i mod 3) is injective over i in [0, 200) by CRT
	// (lcm = 255), so every iteration makes a distinct key.
	if got, want := c.Len(), 200; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// TestNilCache: a nil *Cache degrades to pass-through so callers can keep
// the cache optional without nil checks at every site.
func TestNilCache(t *testing.T) {
	var c *Cache
	v, err := c.Do(key("r", "c", 70), func() (float64, error) { return 4, nil })
	if err != nil || v != 4 {
		t.Errorf("nil Do = %g, %v", v, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Error("nil Len != 0")
	}
}

// TestKeyStringInjectiveSeparators: fields containing the separator or
// escape characters never collide — the regression class the history
// store fixed and the fuzz target patrols.
func TestKeyStringInjectiveSeparators(t *testing.T) {
	pairs := [][2]Key{
		{key("a|b", "c", 70), key("a", "b|c", 70)},
		{key(`a\`, `|b`, 70), key(`a`, `\|b`, 70)},
		{key("r", "c", 7), {Arch: "Crill", App: "sp", Workload: "C|r", Region: "", CapW: 7, Config: "c"}},
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		if p[0].String() == p[1].String() {
			t.Errorf("distinct keys collide: %+v vs %+v -> %q", p[0], p[1], p[0].String())
		}
	}
}

// TestKeyStringMatchesSprintf holds the append-built String to the
// Sprintf form it replaced, byte for byte, on seeded random keys: fields
// with `|` and `\`, fields long enough to outgrow the stack buffer, and
// caps that are integers, fractions, -0, infinities or NaN.
func TestKeyStringMatchesSprintf(t *testing.T) {
	esc := strings.NewReplacer(`\`, `\\`, `|`, `\|`)
	rng := rand.New(rand.NewSource(1))
	field := func() string {
		const alphabet = `ab_|\9é `
		n := rng.Intn(12)
		if rng.Intn(20) == 0 {
			n = 150
		}
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	specials := []float64{0, math.Copysign(0, -1), 70, 72.5, 1e21, 1e-7, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 20000; i++ {
		capW := specials[rng.Intn(len(specials))]
		switch rng.Intn(3) {
		case 0:
			capW = rng.Float64() * 200
		case 1:
			capW = math.Float64frombits(rng.Uint64())
		}
		k := Key{Arch: field(), App: field(), Workload: field(), Region: field(), CapW: capW, Config: field()}
		want := fmt.Sprintf("%s|%s|%s|%s|%g|%s",
			esc.Replace(k.Arch), esc.Replace(k.App), esc.Replace(k.Workload),
			esc.Replace(k.Region), k.CapW, esc.Replace(k.Config))
		if got := k.String(); got != want {
			t.Fatalf("String() = %q, want %q (cap bits %#x)", got, want, math.Float64bits(capW))
		}
	}
}
