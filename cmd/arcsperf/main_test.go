package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared is the metric part of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// testConfig measures fixed op counts at a small scale, so every count a
// run reports is reproducible from its seed.
func testConfig(t *testing.T, workload string) config {
	ops := map[string]int{"lookup": 300, "ingest": 15, "search": 25, "paper-repro": 1}[workload]
	return config{
		workload: workload, seed: 3, seconds: 60, ops: ops, scale: 1.0 / 8, runs: 1,
		workDir: t.TempDir(), golden: "../../results_arcsbench.txt",
	}
}

// emitted runs one workload and returns the JSON line it prints.
func emitted(t *testing.T, cfg config) (jsonResult, *result) {
	t.Helper()
	def, err := selected(cfg.workload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(cfg, def[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.report(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, buf.String())
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", cfg.workload, out.Correct, out.Attempted, out.Failed, buf.String())
	}
	return out, r
}

func checkNames(t *testing.T, got map[string]jsonMetric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("declared metric %s not emitted", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		names := make(map[string]bool)
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				t.Errorf("emitted metric %s is not declared", name)
			}
		}
	}
}

// deterministic are counts that must repeat exactly for a seed.
var deterministic = []string{
	"fleet.forward_share", "search.probes_per_search", "search.tuned_vs_default",
	"store.wal_bytes_per_op", "ompt.events_per_run", "harmony.evals_per_run",
}

// TestWorkloads runs every workload untraced and twice traced on one
// seed: all answers are correct (paper-repro matches the golden file),
// exactly the declared metrics are emitted, and the counts repeat.
func TestWorkloads(t *testing.T) {
	decl := loadDeclared(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			cfg := testConfig(t, def.name)
			e2e, _ := emitted(t, cfg)
			checkNames(t, e2e.Metrics, decl.EndToEnd)
			for name, m := range e2e.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s is %v, want > 0", name, m.Value)
				}
			}
			cfg.trace = true
			a, _ := emitted(t, cfg)
			checkNames(t, a.Metrics, decl.PerLayer)
			b, _ := emitted(t, cfg)
			for _, name := range deterministic {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s differs between same-seed runs: %v vs %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestDeclarationsMatch keeps the program's metric lists and
// BENCHMARK.json in the same order.
func TestDeclarationsMatch(t *testing.T) {
	decl := loadDeclared(t)
	for _, c := range []struct {
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, decl.EndToEnd}, {perLayer, decl.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("program declares %d metrics, BENCHMARK.json %d", len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("metric %d: program %v, BENCHMARK.json %v", i, c.got[i], c.want[i])
			}
		}
	}
}

// TestPaperReproDetectsDrift feeds the paper workload a golden file with
// one altered line and expects the experiment to be counted as failed.
func TestPaperReproDetectsDrift(t *testing.T) {
	data, err := os.ReadFile("../../results_arcsbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	altered := strings.Replace(string(data), "Best Configuration", "Best Configuratiom", 1)
	cfg := testConfig(t, "paper-repro")
	cfg.scale = 0.01 // fig1 alone
	cfg.golden = filepath.Join(cfg.workDir, "golden.txt")
	if err := os.WriteFile(cfg.golden, []byte(altered), 0o644); err != nil {
		t.Fatal(err)
	}
	def, _ := selected("paper-repro")
	r, err := runWorkload(cfg, def[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.correct() {
		t.Fatalf("altered golden: failed=%d correct=%v, want one failure", r.failed, r.correct())
	}
}

func TestParseGolden(t *testing.T) {
	data, err := os.ReadFile("../../results_arcsbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGolden(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 22 {
		t.Fatalf("parsed %d blocks, want 22", len(g))
	}
	for id, block := range g {
		if strings.Contains(block, "completed in") || strings.HasPrefix(block, "\n") || strings.Contains(block, "=====") {
			t.Errorf("block %s keeps timing or separator lines", id)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
