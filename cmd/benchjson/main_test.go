package main

import (
	"bufio"
	"runtime"
	"strings"
	"testing"
)

func TestLoadSniffsJSONArtifact(t *testing.T) {
	artifact := `{"BenchmarkX": {"ns_per_op": 100, "allocs_per_op": 2, "iterations": 10}}`
	got, err := load(bufio.NewReader(strings.NewReader(artifact)))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkX"]; e.NsPerOp != 100 || e.AllocsPerOp != 2 {
		t.Fatalf("JSON artifact not loaded: %+v", got)
	}

	bench := "BenchmarkY-8 5 200 ns/op\nPASS\n"
	got, err = load(bufio.NewReader(strings.NewReader(bench)))
	if err != nil {
		t.Fatal(err)
	}
	if e := got["BenchmarkY"]; e.NsPerOp != 200 {
		t.Fatalf("bench output not loaded: %+v", got)
	}

	if got, err = load(bufio.NewReader(strings.NewReader(""))); err != nil || len(got) != 0 {
		t.Fatalf("empty stdin: %v, %v", got, err)
	}
}

func TestCompareGate(t *testing.T) {
	baseline := map[string]Entry{
		"BenchmarkEncode": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkSearch": {NsPerOp: 1000, AllocsPerOp: 4, Extra: map[string]float64{"evals/s": 50000, "hit-rate": 0.75}},
	}
	all := gateSet{ns: true, allocs: true, extra: true}

	t.Run("within tolerance passes", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": {NsPerOp: 105, AllocsPerOp: 0},
			"BenchmarkSearch": {NsPerOp: 1050, AllocsPerOp: 4, Extra: map[string]float64{"evals/s": 47000, "hit-rate": 0.1}},
		}
		if f := compare(baseline, cur, 10, all); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})

	t.Run("ns regression fails", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": {NsPerOp: 120, AllocsPerOp: 0},
			"BenchmarkSearch": baseline["BenchmarkSearch"],
		}
		f := compare(baseline, cur, 10, all)
		if len(f) != 1 || !strings.Contains(f[0], "BenchmarkEncode: ns/op") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("zero-alloc baseline tolerates no allocs", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": {NsPerOp: 100, AllocsPerOp: 1},
			"BenchmarkSearch": baseline["BenchmarkSearch"],
		}
		f := compare(baseline, cur, 10, all)
		if len(f) != 1 || !strings.Contains(f[0], "BenchmarkEncode: allocs/op 1") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("throughput extras are higher-better", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": baseline["BenchmarkEncode"],
			"BenchmarkSearch": {NsPerOp: 1000, AllocsPerOp: 4, Extra: map[string]float64{"evals/s": 40000, "hit-rate": 0.75}},
		}
		f := compare(baseline, cur, 10, all)
		if len(f) != 1 || !strings.Contains(f[0], "evals/s") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("missing benchmark fails", func(t *testing.T) {
		cur := map[string]Entry{"BenchmarkEncode": baseline["BenchmarkEncode"]}
		f := compare(baseline, cur, 10, all)
		if len(f) != 1 || !strings.Contains(f[0], "missing from this run") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("run benchmark missing from baseline fails", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": baseline["BenchmarkEncode"],
			"BenchmarkSearch": baseline["BenchmarkSearch"],
			"BenchmarkNew":    {NsPerOp: 42},
		}
		f := compare(baseline, cur, 10, all)
		if len(f) != 1 || !strings.Contains(f[0], "BenchmarkNew: present in this run but missing from the baseline") {
			t.Fatalf("failures = %v", f)
		}
		// Coverage failures do not depend on which metrics are gated.
		if f := compare(baseline, cur, 10, gateSet{}); len(f) != 1 {
			t.Fatalf("no-metric gate missed uncovered benchmark: %v", f)
		}
	})

	t.Run("allocs-only gate ignores ns noise", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkEncode": {NsPerOp: 900, AllocsPerOp: 0}, // 9x slower, same allocs
			"BenchmarkSearch": {NsPerOp: 9000, AllocsPerOp: 4, Extra: map[string]float64{"evals/s": 10}},
		}
		if f := compare(baseline, cur, 10, gateSet{allocs: true}); len(f) != 0 {
			t.Fatalf("allocs-only gate tripped on ns/extra noise: %v", f)
		}
	})
}

// TestCompareCountsGate: "/op" extras (probes/op) are lower-is-better,
// exact whatever the tolerance, and gated only when the counts metric
// class is selected.
func TestCompareCountsGate(t *testing.T) {
	baseline := map[string]Entry{
		"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"probes/op": 13, "evals/s": 5000}},
	}
	probes := func(n float64) map[string]Entry {
		return map[string]Entry{
			"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"probes/op": n, "evals/s": 5000}},
		}
	}

	t.Run("count at baseline passes", func(t *testing.T) {
		if f := compare(baseline, probes(13), 10, gateSet{counts: true}); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})

	t.Run("count below baseline passes", func(t *testing.T) {
		if f := compare(baseline, probes(12), 10, gateSet{counts: true}); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})

	t.Run("count one above baseline fails inside tolerance", func(t *testing.T) {
		// 14 is +7.7% on 13, inside -tolerance 10: counts ignore it.
		f := compare(baseline, probes(14), 10, gateSet{counts: true})
		if len(f) != 1 || !strings.Contains(f[0], "probes/op 14") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("count regression fails", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"probes/op": 26, "evals/s": 5000}},
		}
		f := compare(baseline, cur, 10, gateSet{counts: true})
		if len(f) != 1 || !strings.Contains(f[0], "probes/op 26") {
			t.Fatalf("failures = %v", f)
		}
	})

	t.Run("count vanishing fails", func(t *testing.T) {
		// A dropped ReportMetric call reads as 0 > nothing — but a zero
		// current value against a positive baseline means the metric
		// disappeared, which the lower-is-better rule alone would pass.
		// It passes here by design: fewer probes is the goal; only growth
		// is a regression.
		cur := map[string]Entry{
			"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"evals/s": 5000}},
		}
		if f := compare(baseline, cur, 10, gateSet{counts: true}); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})

	t.Run("counts not gated without the class", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"probes/op": 500, "evals/s": 5000}},
		}
		if f := compare(baseline, cur, 10, gateSet{ns: true, allocs: true, extra: true}); len(f) != 0 {
			t.Fatalf("probes/op gated without counts class: %v", f)
		}
	})

	t.Run("throughput still gated alongside counts", func(t *testing.T) {
		cur := map[string]Entry{
			"BenchmarkSurrogateTransfer": {NsPerOp: 1000, Extra: map[string]float64{"probes/op": 13, "evals/s": 100}},
		}
		f := compare(baseline, cur, 10, gateSet{extra: true, counts: true})
		if len(f) != 1 || !strings.Contains(f[0], "evals/s") {
			t.Fatalf("failures = %v", f)
		}
	})
}

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: arcs/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkProbeStaticNPB-8         	  721844	      1606 ns/op	     523 B/op	       2 allocs/op
BenchmarkProbeGrid/Static/Chunk1/Uniform-8  	 1000000	      1041 ns/op	     557 B/op	       2 allocs/op
BenchmarkMissRates                	  500000	      2212 ns/op
BenchmarkSimSearcherCold/parallel8-8  	     100	   1925880 ns/op	     54521 evals/s	       0.75 hit-rate
not a benchmark line
PASS
ok  	arcs/internal/sim	12.3s
`
	got, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d entries, want 4: %v", len(got), got)
	}
	e, ok := got["BenchmarkProbeStaticNPB"]
	if !ok {
		t.Fatalf("missing BenchmarkProbeStaticNPB (GOMAXPROCS suffix not stripped?): %v", got)
	}
	if e.NsPerOp != 1606 || e.BytesPerOp != 523 || e.AllocsPerOp != 2 || e.Iterations != 721844 {
		t.Fatalf("unexpected entry: %+v", e)
	}
	if _, ok := got["BenchmarkProbeGrid/Static/Chunk1/Uniform"]; !ok {
		t.Fatalf("missing sub-benchmark entry: %v", got)
	}
	e = got["BenchmarkMissRates"]
	if e.NsPerOp != 2212 || e.BytesPerOp != 0 {
		t.Fatalf("plain entry without -benchmem wrong: %+v", e)
	}
	e, ok = got["BenchmarkSimSearcherCold/parallel8"]
	if !ok {
		t.Fatalf("missing custom-metric entry (only the trailing GOMAXPROCS suffix should strip): %v", got)
	}
	if e.Extra["evals/s"] != 54521 || e.Extra["hit-rate"] != 0.75 {
		t.Fatalf("custom b.ReportMetric units not captured: %+v", e)
	}
	if e.NsPerOp != 1925880 {
		t.Fatalf("standard units lost alongside custom ones: %+v", e)
	}
}

// TestToolchainRecordedAndChecked: the JSON form records the toolchain
// beside the benchmarks and reads both back, and a baseline gates only a
// run under the toolchain it was recorded with.
func TestToolchainRecordedAndChecked(t *testing.T) {
	var b strings.Builder
	if err := encode(&b, map[string]Entry{"BenchmarkX": {NsPerOp: 100, AllocsPerOp: 2, Iterations: 10}}); err != nil {
		t.Fatal(err)
	}
	results, version, err := decode([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if version != runtime.Version() || len(results) != 1 || results["BenchmarkX"].AllocsPerOp != 2 {
		t.Fatalf("decode(encode(...)) = %+v, %q; want BenchmarkX and %q", results, version, runtime.Version())
	}
	if got, err := load(bufio.NewReader(strings.NewReader(b.String()))); err != nil || len(got) != 1 {
		t.Fatalf("load of an artifact with a toolchain: %+v, %v", got, err)
	}

	if msg := checkToolchain("go1.24.0", "go1.24.0"); msg != "" {
		t.Errorf("same toolchain refused: %s", msg)
	}
	if msg := checkToolchain("go1.24.0", "go1.22.12"); !strings.Contains(msg, "go1.24.0") || !strings.Contains(msg, "go1.22.12") {
		t.Errorf("other toolchain: message %q does not name both", msg)
	}
	if msg := checkToolchain("", "go1.24.0"); !strings.Contains(msg, toolchainKey) {
		t.Errorf("baseline without a toolchain: message %q", msg)
	}
}
