package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// memo_test.go: a Machine's probe table per LoopModel must be invisible.
// Every result, and the noise stream, equals what a machine that always
// simulates returns.

// freshCopy returns an identical LoopModel at a new address, which the
// probe tables have never seen: probing it always simulates.
func freshCopy(lm *LoopModel) *LoopModel {
	return &LoopModel{Name: lm.Name, Iters: lm.Iters, CompNSPerIter: lm.CompNSPerIter,
		SerialNS: lm.SerialNS, Imbalance: lm.Imbalance, Mem: lm.Mem}
}

// tableI returns Crill's 252 Table I points in the offline sweep's
// odometer order (threads, then schedule, then chunk innermost), resolved
// as omp.Resolve does: 0 threads is every hardware thread and the default
// schedule (the fourth) is static. Chunks stay as Table I lists them,
// 0 included; ProbeLoop resolves them.
func tableI(a *Arch) []Config {
	var out []Config
	for _, t := range []int{2, 4, 8, 16, 24, 32, 0} {
		if t == 0 {
			t = a.HWThreads()
		}
		for _, s := range []Schedule{SchedDynamic, SchedStatic, SchedGuided, SchedStatic} {
			for _, c := range []int{1, 8, 16, 32, 64, 128, 256, 512, 0} {
				out = append(out, Config{Threads: t, Sched: s, Chunk: c})
			}
		}
	}
	return out
}

// probeCounted is ProbeCounted failing tb on an error.
func probeCounted(tb testing.TB, m *Machine, lm *LoopModel, cfg Config) (ExecResult, bool) {
	tb.Helper()
	res, sim, err := ProbeCounted(m, lm, cfg)
	if err != nil {
		tb.Fatalf("ProbeLoop(%v): %v", cfg, err)
	}
	return res, sim
}

// twin pairs a machine under test with a reference that simulates every
// probe, on the configuration as given, through probeFresh.
type twin struct {
	got, ref *Machine
	e        probeMemo
}

func newTwin(t *testing.T, seed int64) *twin {
	w := &twin{got: newCrill(t), ref: newCrill(t)}
	w.got.SetNoise(0.05, seed)
	w.ref.SetNoise(0.05, seed)
	return w
}

// probe checks one probe against the reference and reports whether the
// machine under test simulated.
func (w *twin) probe(t *testing.T, lm *LoopModel, cfg Config) bool {
	t.Helper()
	got, sim := probeCounted(t, w.got, lm, cfg)
	want, err := probeFresh(w.ref, lm, cfg, &w.e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: table %+v\nalways simulating %+v", lm.Name, cfg, got, want)
	}
	return sim
}

func (w *twin) clone() *twin { return &twin{got: w.got.Clone(), ref: w.ref.Clone()} }

// alias returns the configuration cfg's chunk aliases on lm: a default
// chunk becomes the one it resolves to and back; other chunks stay.
func alias(lm *LoopModel, cfg Config) Config {
	def := ResolveChunk(cfg.Sched, 0, lm.Iters, cfg.Threads)
	switch cfg.Chunk {
	case 0:
		cfg.Chunk = def
	case def:
		cfg.Chunk = 0
	}
	return cfg
}

// TestProbeTableMatchesAlwaysSimulating drives seeded random probe
// sequences over Table I, with noise, through two interleaved regions,
// cap and frequency changes, and clones probed beside their parents. It
// mixes fresh points (forcing evictions), repeats of recent ones and their
// chunk aliases (hits).
func TestProbeTableMatchesAlwaysSimulating(t *testing.T) {
	lms := []*LoopModel{rampLoop(), memLoop()}
	points := tableI(Crill())
	caps := []float64{0, 55, 70, 115}
	a := Crill()
	ghzs := []float64{0, a.MinGHz, (a.MinGHz + a.BaseGHz) / 2, a.BaseGHz}
	type probeAt struct {
		lm  *LoopModel
		cfg Config
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		twins := []*twin{newTwin(t, seed)}
		var recent []probeAt
		probes, sims, evicts := 0, 0, 0
		for i := 0; i < 1200; i++ {
			w := twins[rng.Intn(len(twins))]
			switch r := rng.Intn(100); {
			case r < 2:
				c := caps[rng.Intn(len(caps))]
				if err := w.got.SetPowerCap(c); err != nil {
					t.Fatal(err)
				}
				if err := w.ref.SetPowerCap(c); err != nil {
					t.Fatal(err)
				}
			case r < 4:
				f := ghzs[rng.Intn(len(ghzs))]
				if err := w.got.SetUserFreqGHz(f); err != nil {
					t.Fatal(err)
				}
				if err := w.ref.SetUserFreqGHz(f); err != nil {
					t.Fatal(err)
				}
			case r < 5:
				c := w.clone()
				if len(twins) < 3 {
					twins = append(twins, c)
				} else {
					twins[rng.Intn(len(twins))] = c
				}
				w = c
			}
			var p probeAt
			switch r := rng.Intn(10); {
			case r < 4 || len(recent) == 0:
				p = probeAt{lms[rng.Intn(len(lms))], points[rng.Intn(len(points))]}
			case r < 7:
				p = recent[rng.Intn(len(recent))]
			default:
				p = recent[rng.Intn(len(recent))]
				p.cfg = alias(p.lm, p.cfg)
			}
			if len(recent) == 2*probeTableCap {
				recent = recent[1:]
			}
			recent = append(recent, p)
			full := len(w.got.probes[p.lm].e) == probeTableCap
			probes++
			if w.probe(t, p.lm, p.cfg) {
				sims++
				if full {
					evicts++
				}
			}
		}
		for _, w := range twins {
			if g, r := w.got.noiseFactor(), w.ref.noiseFactor(); g != r {
				t.Fatalf("seed %d: noise streams diverged: %v vs %v", seed, g, r)
			}
		}
		if sims == probes || evicts == 0 {
			t.Fatalf("seed %d: %d probes, %d simulated, %d evicted: the sequence checks no hit or no eviction",
				seed, probes, sims, evicts)
		}
	}
}

// TestProbeTableSweep sweeps Table I in odometer order over two
// interleaved regions, as an offline search runs an app's steps. No alias
// lies more than probeTableCap-1 distinct probes after its twin in the
// region's table (see probeTableCap), so each region simulates each of its
// distinct resolved configurations once: every chunk-0 point, every
// default-schedule point and the whole all-threads block are hits.
func TestProbeTableSweep(t *testing.T) {
	w := newTwin(t, 7)
	lms := []*LoopModel{rampLoop(), memLoop()}
	points := tableI(w.got.Arch())
	sims := make([]int, len(lms))
	for _, cfg := range points {
		for i, lm := range lms {
			if w.probe(t, lm, cfg) {
				sims[i]++
			}
		}
	}
	for i, lm := range lms {
		distinct := map[Config]bool{}
		for _, cfg := range points {
			cfg.Chunk = ResolveChunk(cfg.Sched, cfg.Chunk, lm.Iters, cfg.Threads)
			distinct[cfg] = true
		}
		if want := len(distinct); sims[i] != want {
			t.Errorf("%s: %d of %d probes simulated, want %d", lm.Name, sims[i], len(points), want)
		}
	}
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
	tab := memo.probes[lm]
	if len(tab.e) != 2 || tab.lookup(memo, a) == nil || tab.lookup(memo, b) == nil {
		t.Fatal("the probe table does not hold exactly the two probed configurations")
	}
}

// detach returns r with private copies of its per-thread slices, which
// otherwise the machine's next probe overwrites: a test that holds two
// results of one machine detaches the first before probing again.
func detach(r ExecResult) ExecResult {
	r.PerThreadBusyS = slices.Clone(r.PerThreadBusyS)
	r.PerThreadWaitS = slices.Clone(r.PerThreadWaitS)
	return r
}

func TestMemoMissesOnChangedInputs(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 16, Sched: SchedDynamic, Chunk: 4}
	prev := detach(probe(t, m, lm, cfg))
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
		prev = detach(got)
	}
}

func TestCloneStartsWithEmptyMemo(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 8, Sched: SchedGuided, Chunk: 2}
	want := detach(probe(t, m, lm, cfg))
	c := m.Clone()
	if len(c.probes) != 0 {
		t.Fatalf("clone starts with %d probe tables", len(c.probes))
	}
	if err := c.SetPowerCap(55); err != nil {
		t.Fatal(err)
	}
	probe(t, c, lm, cfg)
	if &c.probes[lm].e[0] == &m.probes[lm].e[0] {
		t.Fatal("clone shares the parent's probe table")
	}
	if got := probe(t, m, lm, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent after the clone probed: %+v, want %+v", got, want)
	}
}

// TestProbeErrorCachesNothing: a probe that fails returns the error the
// simulation gives for the configuration as passed (no chunk resolution
// runs on a team of 0), and leaves the table as it was: no entry for the
// failed probe, and no entry evicted.
func TestProbeErrorCachesNothing(t *testing.T) {
	lm := rampLoop()
	bad := []Config{
		{Threads: 0, Sched: SchedStatic},
		{Threads: 0, Sched: SchedDynamic},
		{Threads: -3, Sched: SchedStatic},
		{Threads: 64, Sched: SchedStatic},
		{Threads: 4, Sched: Schedule(99)},
	}
	m := newCrill(t)
	for _, cfg := range bad { // on an empty table
		if _, err := m.ProbeLoop(lm, cfg); err == nil {
			t.Fatalf("%v: no error", cfg)
		}
	}
	if n := len(m.probes[lm].e); n != 0 {
		t.Fatalf("failed probes left %d table entries", n)
	}
	if _, err := m.ProbeLoop(lm, bad[0]); err == nil || err.Error() != "sim: non-positive thread count 0" {
		t.Fatalf("Threads 0: %v", err)
	}

	var cfgs []Config // a full table
	for c := 1; c <= probeTableCap; c++ {
		cfg := Config{Threads: 16, Sched: SchedGuided, Chunk: c}
		cfgs = append(cfgs, cfg)
		probe(t, m, lm, cfg)
	}
	next := m.probes[lm].next
	for _, cfg := range bad {
		var e probeMemo
		want := m.simulate(lm, cfg, &e)
		_, err := m.ProbeLoop(lm, cfg)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%v: error %v, want %v", cfg, err, want)
		}
	}
	if m.probes[lm].next != next {
		t.Fatal("a failed probe moved the table")
	}
	for _, cfg := range cfgs {
		if _, sim := probeCounted(t, m, lm, cfg); sim {
			t.Fatalf("%v was evicted by a failed probe", cfg)
		}
	}
}

// TestProbeTableCapacity: a table's entry slice grows by doubling but
// never past probeTableCap, so a full table keeps no dead entry, and a
// table that only ever replays one probe holds one entry.
func TestProbeTableCapacity(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	for i := 0; i < 3; i++ {
		probe(t, m, lm, Config{Threads: 8, Sched: SchedStatic})
	}
	if n := cap(m.probes[lm].e); n != 1 {
		t.Fatalf("a replay-only table has capacity %d; want 1", n)
	}
	for c := 1; c <= 100; c++ {
		probe(t, m, lm, Config{Threads: 16, Sched: SchedGuided, Chunk: c})
		if n := cap(m.probes[lm].e); n > probeTableCap {
			t.Fatalf("after %d distinct probes the table has capacity %d; want at most %d", c+1, n, probeTableCap)
		}
	}
	if n := len(m.probes[lm].e); n != probeTableCap {
		t.Fatalf("a full table holds %d entries; want %d", n, probeTableCap)
	}
}

// TestResultSlicesAreViews: a result's per-thread slices are views of the
// machine's output buffer. Writing to them never reaches the probe table,
// and the machine's next probe overwrites them.
func TestResultSlicesAreViews(t *testing.T) {
	m := newCrill(t)
	lm := rampLoop()
	cfg := Config{Threads: 8, Sched: SchedDynamic, Chunk: 1}
	want := probe(t, newCrill(t), lm, cfg)
	first := probe(t, m, lm, cfg)
	for i := range first.PerThreadBusyS {
		first.PerThreadBusyS[i] = -1
		first.PerThreadWaitS[i] = -1
	}
	got := probe(t, m, lm, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutating a returned result: %+v, want %+v", got, want)
	}
	if !slices.Equal(first.PerThreadBusyS, want.PerThreadBusyS) || !slices.Equal(first.PerThreadWaitS, want.PerThreadWaitS) {
		t.Fatalf("the next probe left the earlier result's slices as %v, %v; want them overwritten with %v, %v",
			first.PerThreadBusyS, first.PerThreadWaitS, want.PerThreadBusyS, want.PerThreadWaitS)
	}
}

// TestProbeAllocs holds a probe, hit or miss, to no allocation once the
// table is full: a miss simulates into the evicted entry's buffers, and
// every result's per-thread slices are views of the machine's buffer.
func TestProbeAllocs(t *testing.T) {
	m := newCrill(t)
	m.SetNoise(0.02, 3)
	lm := rampLoop()
	// One configuration more than the table holds, cycled: every probe
	// evicts the one the next probe needs, so every probe misses.
	var cfgs []Config
	for c := 1; c <= probeTableCap+1; c++ {
		cfgs = append(cfgs, Config{Threads: 32, Sched: SchedDynamic, Chunk: c})
	}
	for _, cfg := range cfgs {
		probe(t, m, lm, cfg)
	}
	hit := testing.AllocsPerRun(50, func() { _, _ = m.ProbeLoop(lm, cfgs[len(cfgs)-1]) })
	i := 0
	misses := 0
	miss := testing.AllocsPerRun(50, func() {
		_, sim := probeCounted(t, m, lm, cfgs[i%len(cfgs)])
		if sim {
			misses++
		}
		i++
	})
	if misses != i {
		t.Fatalf("%d of %d cycled probes missed; want all", misses, i)
	}
	if hit != 0 || miss != 0 {
		t.Fatalf("allocs per probe: hit %v, miss %v; want 0", hit, miss)
	}
}
