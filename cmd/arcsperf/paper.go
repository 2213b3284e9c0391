package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"arcs/internal/bench"
	"arcs/internal/cli"
	"arcs/internal/sim"
)

// paperJobs is the harness width, as `arcsbench -j 2` on a 2-core host.
const paperJobs = 2

// completedLine ends each experiment's block in results_arcsbench.txt;
// blocks after the first start with the separator arcsbench prints.
var (
	completedLine = regexp.MustCompile(`(?m)^\[([a-z0-9-]+) completed in [0-9.]+s\]\n`)
	blockSep      = "\n" + strings.Repeat("=", 64) + "\n\n"
)

// parseGolden splits arcsbench's committed output into each experiment's
// exact output, dropping the timing lines.
func parseGolden(text string) (map[string]string, error) {
	out := make(map[string]string)
	for rest := text; ; {
		loc := completedLine.FindStringSubmatchIndex(rest)
		if loc == nil {
			break
		}
		out[rest[loc[2]:loc[3]]] = strings.TrimPrefix(rest[:loc[0]], blockSep)
		rest = rest[loc[1]:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden file holds no experiment blocks")
	}
	return out, nil
}

type paperWorkload struct {
	cfg    config
	golden map[string]string
	count  int // experiments run, in paper order
}

func newPaperWorkload(cfg config) (*paperWorkload, error) {
	data, err := os.ReadFile(cfg.golden)
	if err != nil {
		return nil, err
	}
	golden, err := parseGolden(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.golden, err)
	}
	n := len(bench.Experiments())
	w := &paperWorkload{cfg: cfg, golden: golden, count: max(1, min(n, int(float64(n)*cfg.scale+0.5)))}
	for _, e := range bench.Experiments()[:w.count] {
		if _, ok := golden[e.ID]; !ok {
			return nil, fmt.Errorf("%s has no block for experiment %s", cfg.golden, e.ID)
		}
	}
	return w, nil
}

// paperSystem is the experiment harness, ready to run suites.
type paperSystem struct {
	w     *paperWorkload
	tr    *tracer
	exps  []bench.Experiment
	busy  time.Duration // summed experiment time
	suite time.Duration // summed suite wall time
}

func (w *paperWorkload) start(tr *tracer) (system, error) {
	s := &paperSystem{w: w, tr: tr}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	return s, nil
}

// timedPrepare sets the harness up prepareReps times and returns the
// mean seconds per set-up: one set-up takes microseconds, too short a
// sample to time alone.
func (s *paperSystem) timedPrepare() (float64, error) {
	const prepareReps = 100
	t0 := time.Now()
	for i := 0; i < prepareReps; i++ {
		if err := s.prepare(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / prepareReps, nil
}

// prepare sets the harness up as arcsbench does, and builds the platform
// models the experiments simulate.
func (s *paperSystem) prepare() error {
	bench.SetParallelism(paperJobs)
	s.exps = bench.Experiments()[:s.w.count]
	for _, a := range searchApps {
		if _, err := cli.BuildApp(a.app, a.workload); err != nil {
			return err
		}
	}
	for _, name := range cli.Arches() {
		arch, err := cli.BuildArch(name)
		if err != nil {
			return err
		}
		if _, err := sim.NewMachine(arch); err != nil {
			return err
		}
	}
	return nil
}

// measure runs whole suites through the harness pool, each experiment's
// output buffered and compared with its golden block. Each suite sets
// the harness up afresh, timed as set-up; the harness keeps nothing
// between suites, so its heap is read while a suite runs.
func (s *paperSystem) measure(_ context.Context, stop stopRule, p *pass) {
	for i := 0; !stop.done(i); i++ {
		setup, err := s.timedPrepare()
		if err != nil {
			p.add(0, err)
			return
		}
		p.setups = append(p.setups, setup)
		bufs := make([]bytes.Buffer, len(s.exps))
		durs := make([]time.Duration, len(s.exps))
		errs := make([]error, len(s.exps))
		var wall time.Duration
		p.heaps = append(p.heaps, liveHeapDuring(func() {
			t0 := time.Now()
			_ = bench.ForEach(len(s.exps), func(i int) error {
				sp := s.tr.begin("op.paper-repro", nil)
				bs := s.tr.begin("bench."+s.exps[i].ID, refOf(sp))
				st := time.Now()
				errs[i] = s.exps[i].Run(&bufs[i])
				durs[i] = time.Since(st)
				s.tr.end(bs, 0)
				s.tr.end(sp, 0)
				return errs[i]
			})
			wall = time.Since(t0)
		}))
		p.wall += wall
		s.suite += wall
		for i, e := range s.exps {
			err := errs[i]
			if err == nil && bufs[i].String() != s.w.golden[e.ID] {
				err = fmt.Errorf("experiment %s: output differs from the golden file", e.ID)
			}
			p.add(durs[i], err)
			s.busy += durs[i]
		}
	}
}

func (s *paperSystem) counters() map[string]float64 {
	return map[string]float64{"bench.busy_s": s.busy.Seconds(), "bench.suite_s": s.suite.Seconds()}
}

func (s *paperSystem) close() error { return nil }
