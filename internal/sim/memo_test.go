package sim

import (
	"reflect"
	"testing"
)

// memo_test.go: a Machine's memo of its last probe per LoopModel must be
// invisible. Every result, and the noise stream, equals what a machine
// that always simulates returns.

// freshCopy returns an identical LoopModel at a new address, which the
// memo has never seen: probing it always simulates.
func freshCopy(lm *LoopModel) *LoopModel {
	return &LoopModel{Name: lm.Name, Iters: lm.Iters, CompNSPerIter: lm.CompNSPerIter,
		SerialNS: lm.SerialNS, Imbalance: lm.Imbalance, Mem: lm.Mem}
}

func TestMemoRepeatsMatchAlwaysMissing(t *testing.T) {
	memo, miss := newCrill(t), newCrill(t)
	memo.SetNoise(0.05, 11)
	miss.SetNoise(0.05, 11)
	lm := rampLoop()
	a := Config{Threads: 16, Sched: SchedDynamic, Chunk: 4}
	b := Config{Threads: 32, Sched: SchedGuided, Chunk: 8}
	// Three runs per arm, as the paper measures, then a converged region
	// re-run on one configuration.
	for i, cfg := range []Config{a, a, a, b, b, b, a, b, b, b, b} {
		got := probe(t, memo, lm, cfg)
		want := probe(t, miss, freshCopy(lm), cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d %v: memo %+v\nalways missing %+v", i, cfg, got, want)
		}
	}
	if e := memo.memo[lm]; e == nil || !e.holds(memo, b) {
		t.Fatal("the memo does not hold the last probe")
	}
}

func TestMemoMissesOnChangedInputs(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 16, Sched: SchedDynamic, Chunk: 4}
	prev := probe(t, m, lm, cfg)
	steps := []struct {
		name   string
		change func(*Machine) error
		cfg    Config
	}{
		{"SetPowerCap", func(m *Machine) error { return m.SetPowerCap(70) }, cfg},
		{"SetUserFreqGHz", func(m *Machine) error { return m.SetUserFreqGHz(1.6) }, cfg},
		{"cfg", func(*Machine) error { return nil }, Config{Threads: 16, Sched: SchedDynamic, Chunk: 8}},
		{"SetUserFreqGHz(0)", func(m *Machine) error { return m.SetUserFreqGHz(0) }, Config{Threads: 16, Sched: SchedDynamic, Chunk: 8}},
	}
	for _, s := range steps {
		if err := s.change(m); err != nil {
			t.Fatal(err)
		}
		got := probe(t, m, lm, s.cfg)
		ref := newCrill(t)
		if err := ref.SetPowerCap(m.capW); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetUserFreqGHz(m.UserFreqGHz()); err != nil {
			t.Fatal(err)
		}
		want := probe(t, ref, freshCopy(lm), s.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: %+v\nwant %+v", s.name, got, want)
		}
		if reflect.DeepEqual(got, prev) {
			t.Fatalf("after %s: the result did not change, so the step checks nothing", s.name)
		}
		prev = got
	}
}

func TestCloneStartsWithEmptyMemo(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 8, Sched: SchedGuided, Chunk: 2}
	want := probe(t, m, lm, cfg)
	c := m.Clone()
	if len(c.memo) != 0 {
		t.Fatalf("clone starts with %d memo entries", len(c.memo))
	}
	if err := c.SetPowerCap(55); err != nil {
		t.Fatal(err)
	}
	probe(t, c, lm, cfg)
	if c.memo[lm] == m.memo[lm] {
		t.Fatal("clone shares the parent's memo entry")
	}
	if got := probe(t, m, lm, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent after the clone probed: %+v, want %+v", got, want)
	}
}

func TestMemoReturnsFreshSlices(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 8, Sched: SchedDynamic, Chunk: 1}
	want := probe(t, newCrill(t), lm, cfg)
	first := probe(t, m, lm, cfg)
	for i := range first.PerThreadBusyS {
		first.PerThreadBusyS[i] = -1
		first.PerThreadWaitS[i] = -1
	}
	if got := probe(t, m, lm, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutating a returned result: %+v, want %+v", got, want)
	}
}

// TestProbeAllocs holds a probe, hit or miss, to the one buffer behind the
// two per-thread slices it returns.
func TestProbeAllocs(t *testing.T) {
	m := newCrill(t)
	m.SetNoise(0.02, 3)
	lm := rampLoop()
	cfgs := []Config{
		{Threads: 32, Sched: SchedDynamic, Chunk: 1},
		{Threads: 32, Sched: SchedGuided, Chunk: 1},
	}
	probe(t, m, lm, cfgs[0])
	probe(t, m, lm, cfgs[1])
	hit := testing.AllocsPerRun(50, func() { _, _ = m.ProbeLoop(lm, cfgs[1]) })
	i := 0
	miss := testing.AllocsPerRun(50, func() { // alternating configurations: every probe misses
		i++
		_, _ = m.ProbeLoop(lm, cfgs[i%2])
	})
	if hit > 1 || miss > 1 {
		t.Fatalf("allocs per probe: hit %v, miss %v; want at most 1", hit, miss)
	}
}
