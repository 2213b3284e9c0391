// Command arcsperf is the repository's end-to-end benchmark. It builds
// arcsd nodes in-process with arcsd's own constructors and defaults,
// drives one of four seeded workloads against them from closed-loop
// clients, checks every answer, and prints each metric by name and unit;
// the last line of its output is one JSON object with the results.
//
//	go run . -workload lookup -seed 1 -seconds 15          # end-to-end metrics
//	go run . -workload search -seed 1 -seconds 15 -trace 1  # per-layer metrics
//	go run . -workload all -runs 10                        # run-to-run spread
//
// Run it from cmd/arcsperf with -golden ../../results_arcsbench.txt, or
// from the repository root through run.sh. README.md describes the
// workloads, the metrics and the traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time per workload
	trace    bool    // report per-layer metrics from a traced run instead
	ops      int     // >0: measure exactly this many ops per client instead of seconds
	scale    float64 // <1 shrinks the preload, warm-up, replays and the paper suite
	runs     int     // repeat with seeds seed..seed+runs-1 and print the spread
	workDir  string  // stores, build products and span files
	golden   string  // arcsbench's committed output
}

// stop is the measured phase's stopping rule: a fixed op count per
// client, or a fraction of -seconds.
func (c config) stop(fraction float64) stopRule {
	if c.ops > 0 {
		return stopRule{ops: c.ops}
	}
	return stopRule{deadline: time.Now().Add(time.Duration(c.seconds * fraction * float64(time.Second)))}
}

// metricDef declares one reported metric. These two lists are the
// metrics BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"storeclient.self_share", "ratio"},
	{"storeclient.bytes_per_op", "bytes"},
	{"http.transport_share", "ratio"},
	{"server.self_share", "ratio"},
	{"server.requests_per_op", "count"},
	{"fleet.peer_share", "ratio"},
	{"fleet.forward_share", "ratio"},
	{"fleet.peer_rpcs_per_op", "count"},
	{"fleet.peer_bytes_per_op", "bytes"},
	{"fleet.replicated_per_op", "count"},
	{"fleet.tick_busy_share", "ratio"},
	{"store.get_us_p50", "us"},
	{"store.nearest_us_p50", "us"},
	{"store.save_us_p50", "us"},
	{"store.save_us_p99", "us"},
	{"store.neighbors_share", "ratio"},
	{"store.wal_bytes_per_op", "bytes"},
	{"store.snapshot_bytes_per_op", "bytes"},
	{"store.compactions_per_1k_ops", "count"},
	{"store.fs_busy_share", "ratio"},
	{"codec.answer_encode_ns", "ns"},
	{"codec.answer_decode_ns", "ns"},
	{"codec.batch_encode_us", "us"},
	{"codec.batch_decode_us", "us"},
	{"codec.snapshot_encode_ms", "ms"},
	{"search.self_share", "ratio"},
	{"search.probes_per_search", "count"},
	{"search.neighbor_scans_per_search", "count"},
	{"search.tuned_vs_default", "ratio"},
	{"evalcache.hit_share", "ratio"},
	{"sim.app_run_ms", "ms"},
	{"ompt.events_per_run", "count"},
	{"apex.overhead_ms", "ms"},
	{"core.tuner_overhead_ms", "ms"},
	{"harmony.evals_per_run", "count"},
	{"bench.pool_busy_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// system is a workload's system under test, set up and warm.
type system interface {
	// measure runs operations until stop ends them, recording each
	// one's latency and any failure in p.
	measure(ctx context.Context, stop stopRule, p *pass)
	// counters snapshots the workload's own cumulative counters.
	counters() map[string]float64
	close() error
}

// workload builds its system; its inputs are made beforehand, untimed.
type workload interface {
	start(tr *tracer) (system, error)
}

type workloadDef struct {
	name   string
	setups int // set-up repetitions whose median is setup_s
	// hostExponent is how steeply the workload's times follow the host's
	// slowness (host.go): 1 for parallel compute, near 2 for requests
	// that wait on both vCPUs in turn. Fitted over 40 runs spanning the
	// development host's fast and slow periods.
	hostExponent float64
	prepare      func(cfg config) (workload, error)
}

var workloads = []workloadDef{
	{"lookup", 3, 1.8, func(cfg config) (workload, error) {
		return &servingWorkload{cfg: cfg, ks: newKeySpace(cfg.seed, contexts(cfg))}, nil
	}},
	{"ingest", 3, 1.6, func(cfg config) (workload, error) {
		return &servingWorkload{cfg: cfg, ingest: true, ks: newKeySpace(cfg.seed, contexts(cfg))}, nil
	}},
	{"search", 5, 1.2, func(cfg config) (workload, error) {
		w, err := newSearchWorkload(cfg)
		if err != nil {
			return nil, err
		}
		return w, nil
	}},
	{"paper-repro", 1, 1.0, func(cfg config) (workload, error) {
		w, err := newPaperWorkload(cfg)
		if err != nil {
			return nil, err
		}
		return w, nil
	}},
}

// contexts is the preload's context count at cfg's scale.
func contexts(cfg config) int { return max(16, int(fullContexts*cfg.scale)) }

// pass is one measured phase's raw outcome. setups holds the set-up
// work a phase repeats between its operations (a search round's fresh
// node, a suite's harness); it counts toward setup_s, not the operations.
// heaps holds the heap readings of phases whose system is not simply
// the state left at the end: one per search round, one per suite.
type pass struct {
	lat    []time.Duration
	setups []float64
	heaps  []float64
	failed int
	errs   []string // the first few failures
	wall   time.Duration
}

func (p *pass) add(lat time.Duration, err error) {
	p.lat = append(p.lat, lat)
	if err != nil {
		p.note(err.Error())
	}
}

func (p *pass) note(e string) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, e)
	}
}

func (p *pass) merge(q *pass) {
	p.lat = append(p.lat, q.lat...)
	p.failed += q.failed - len(q.errs)
	for _, e := range q.errs {
		p.note(e)
	}
}

// err reports the first failure, if any.
func (p *pass) err() error {
	if p.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed, first: %s", p.failed, len(p.lat), p.errs[0])
}

func (p *pass) rate() float64 { return ratio(float64(len(p.lat)), p.wall.Seconds()) }

// stopRule ends a closed loop after ops operations per client, or at the
// deadline when ops is zero.
type stopRule struct {
	deadline time.Time
	ops      int
}

func (s stopRule) done(i int) bool {
	if s.ops > 0 {
		return i >= s.ops
	}
	return !time.Now().Before(s.deadline)
}

// closedLoop runs clients goroutines, each sending its next operation
// only when the previous one has answered, as jobs blocked on their
// configuration do.
func closedLoop(clients int, stop stopRule, p *pass, op func(client int) (time.Duration, error)) {
	parts := make([]pass, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.done(i); i++ {
				parts[c].add(op(c))
			}
		}(c)
	}
	wg.Wait()
	p.wall += time.Since(t0)
	for i := range parts {
		p.merge(&parts[i])
	}
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	defs      []metricDef
	spans     string  // span file of a traced run
	host      float64 // factor an untraced run's times were divided by
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload sets the system up (several times; the last one stays up),
// measures it, and returns the end-to-end metrics, or with -trace the
// per-layer metrics of an untraced and a traced pass.
func runWorkload(cfg config, def workloadDef) (*result, error) {
	w, err := def.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", def.name, err)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	reps := def.setups
	if cfg.scale < 1 {
		reps = 1
	}
	probe := startHostProbe()
	defer func() { probe.finish() }()
	var setups []float64
	var sys system
	for i := 0; i < reps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", def.name, err)
			}
		}
		t0 := time.Now()
		if sys, err = w.start(tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ctx := context.Background()
	res := &result{workload: def.name}
	if !cfg.trace {
		var p pass
		sys.measure(ctx, cfg.stop(1), &p)
		sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
		res.attempted, res.failed, res.errs = len(p.lat), p.failed, p.errs
		res.defs = endToEnd
		// Times are divided, and rates multiplied, by how much slower than
		// nominal the host ran this run (host.go explains why).
		res.host = hostFactor(probe.finish(), def.hostExponent)
		res.values = map[string]float64{
			"setup_s":        median(append(setups, p.setups...)) / res.host,
			"ops_per_s":      p.rate() * res.host,
			"latency_p50_ms": ms(percentile(p.lat, 0.50)) / res.host,
			"latency_p99_ms": ms(percentile(p.lat, 0.99)) / res.host,
		}
		p.lat = nil
		if len(p.heaps) == 0 {
			p.heaps = append(p.heaps, liveHeapMiB())
		}
		res.values["heap_mb"] = median(p.heaps)
		if err := sys.close(); err != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", def.name, err)
		}
		return res, nil
	}

	// Each half is probed on its own, so the tracing overhead is not
	// confused with the host slowing down between the halves.
	probe.finish()
	var p1, p2 pass
	r0 := readRuntime()
	probe = startHostProbe()
	sys.measure(ctx, cfg.stop(0.5), &p1)
	rate1 := p1.rate() * hostFactor(probe.finish(), def.hostExponent)
	r1 := readRuntime()
	c0 := sys.counters()
	tr.take()
	tr.on.Store(true)
	probe = startHostProbe()
	sys.measure(ctx, cfg.stop(0.5), &p2)
	rate2 := p2.rate() * hostFactor(probe.finish(), def.hostExponent)
	tr.on.Store(false)
	c1 := sys.counters()
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", def.name, err)
	}
	spans := tr.take()
	res.attempted, res.failed = len(p1.lat)+len(p2.lat), p1.failed+p2.failed
	res.errs = append(p1.errs, p2.errs...)
	res.defs = perLayer
	res.values = make(map[string]float64)
	for _, m := range []map[string]float64{
		spanLayers(spans, len(p2.lat), p2.wall),
		counterLayers(c0, c1, len(p2.lat)),
		runtimeLayers(r0, r1, len(p1.lat)),
	} {
		for k, v := range m {
			res.values[k] = v
		}
	}
	res.values["trace.overhead_share"] = 1 - ratio(rate2, rate1)
	replay, err := replayLayers(cfg.workDir, newKeySpace(cfg.seed, contexts(cfg)), cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: store and codec replay: %w", def.name, err)
	}
	tuner, err := tunerLayers(max(3, int(50*cfg.scale)))
	if err != nil {
		return nil, fmt.Errorf("%s: tuner run: %w", def.name, err)
	}
	for _, m := range []map[string]float64{replay, tuner} {
		for k, v := range m {
			res.values[k] = v
		}
	}
	res.spans = filepath.Join(cfg.workDir, "spans-"+def.name+".jsonl")
	if err := writeSpans(res.spans, spans); err != nil {
		return nil, fmt.Errorf("%s: write spans: %w", def.name, err)
	}
	return res, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints a readable table, then the result as one JSON line.
func (r *result) report(w io.Writer) error {
	fmt.Fprintf(w, "%s: %d operations, %d failed\n", r.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if r.spans != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.spans)
	}
	if r.host > 0 {
		fmt.Fprintf(w, "  times divided and rates multiplied by %.4f for host slowness\n", r.host)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// series runs def cfg.runs times on consecutive seeds and prints each
// metric's median, quartiles and spread (the quartile distance as a
// share of the median).
func series(w io.Writer, cfg config, def workloadDef) (bool, error) {
	vals := make(map[string][]float64)
	var defs []metricDef
	correct := true
	for i := 0; i < cfg.runs; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		r, err := runWorkload(c, def)
		if err != nil {
			return false, err
		}
		correct = correct && r.correct()
		for _, e := range r.errs {
			fmt.Fprintf(w, "%s seed %d failure: %s\n", def.name, c.seed, e)
		}
		defs = r.defs
		for k, v := range r.values {
			vals[k] = append(vals[k], v)
		}
	}
	fmt.Fprintf(w, "%s: %d runs, seeds %d..%d\n", def.name, cfg.runs, cfg.seed, cfg.seed+int64(cfg.runs)-1)
	fmt.Fprintf(w, "  %-34s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, d := range defs {
		xs := vals[d.name]
		q1, q3 := quartiles(xs)
		m := median(xs)
		fmt.Fprintf(w, "  %-34s %14.6g %14.6g %14.6g %7.2f%%  %s\n", d.name, m, q1, q3, 100*ratio(q3-q1, math.Abs(m)), d.unit)
	}
	return correct, nil
}

func main() {
	cfg := config{}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "all", "lookup, ingest, search, paper-repro or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per workload run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from an untraced and a traced pass and writes the spans")
	flag.IntVar(&cfg.ops, "ops", 0, "measure exactly this many operations per client (suites for paper-repro) instead of -seconds")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink the preload, warm-up, replays and paper suite by this factor (0 < scale <= 1)")
	flag.IntVar(&cfg.runs, "runs", 1, "repeat each workload on this many consecutive seeds and print medians and quartiles")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for stores and span files")
	flag.StringVar(&cfg.golden, "golden", "results_arcsbench.txt", "arcsbench's committed output, compared with paper-repro")
	flag.Parse()
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "arcsperf:", err)
		os.Exit(2)
	}
	ok, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arcsperf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func validate(cfg config, trace int) error {
	switch {
	case trace != 0 && trace != 1:
		return errors.New("-trace must be 0 or 1")
	case cfg.seconds <= 0:
		return errors.New("-seconds must be positive")
	case cfg.scale <= 0 || cfg.scale > 1:
		return errors.New("-scale must be in (0, 1]")
	case cfg.runs < 1 || cfg.ops < 0:
		return errors.New("-runs must be at least 1 and -ops not negative")
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if _, err := selected(cfg.workload); err != nil {
		return err
	}
	return nil
}

func selected(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, d := range workloads {
		if d.name == name {
			return []workloadDef{d}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run runs the selected workloads and reports whether every answer was
// correct.
func run(w io.Writer, cfg config) (bool, error) {
	defs, err := selected(cfg.workload)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return false, err
	}
	ok := true
	for _, def := range defs {
		if cfg.runs > 1 {
			good, err := series(w, cfg, def)
			if err != nil {
				return false, err
			}
			ok = ok && good
			continue
		}
		r, err := runWorkload(cfg, def)
		if err != nil {
			return false, err
		}
		if err := r.report(w); err != nil {
			return false, err
		}
		ok = ok && r.correct()
	}
	return ok, nil
}
