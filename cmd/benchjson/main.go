// Command benchjson converts `go test -bench` output on stdin into a JSON
// object mapping benchmark name to ns/op (plus B/op and allocs/op when
// -benchmem was used). CI pipes the benchmark step through it to publish
// BENCH_arcs.json, giving the repository a machine-readable perf
// trajectory across commits.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson > BENCH_arcs.json
//
// With -compare the tool becomes a perf gate: it reads the current run
// from stdin (raw bench output or a previously emitted JSON artifact —
// sniffed by the first byte), compares every benchmark present in the
// baseline file, and exits non-zero on regression:
//
//	go test -bench . -benchmem ./internal/codec/ | benchjson -compare bench_baseline.json -tolerance 10 -metrics allocs
//
// Gated metrics are chosen with -metrics (comma-separated): "ns" gates
// ns/op, "allocs" gates allocs/op, "extra" gates custom b.ReportMetric
// units ending in "/s" (throughput: higher is better), "counts" gates
// custom units ending in "/op" (probes/op, sims/op, ...: lower is better,
// and exact: -tolerance does not apply, so any rise fails and a fall is
// relocked in the baseline); custom units matching neither suffix are
// informational only.
// The JSON also records the Go toolchain that ran the benchmarks
// (runtime.Version() of this binary, built by the same go command), under
// the key "go_version": allocation counts depend on the runtime, so
// -compare refuses a baseline recorded under another toolchain instead
// of gating one runtime's counts against another's.
//
// A benchmark named in the baseline but missing from the current run is
// itself a failure — a silently deleted benchmark must not pass the
// gate — and so is a benchmark present in the run but absent from the
// baseline: a new hot path must land with its baseline entry or the
// gate never covers it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
	// Extra holds custom b.ReportMetric units (evals/s, hit-rate, ...)
	// keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	compareFile := flag.String("compare", "", "baseline JSON file; compare instead of emitting JSON, exit 1 on regression")
	tolerance := flag.Float64("tolerance", 10, "allowed regression percent per gated metric")
	metrics := flag.String("metrics", "ns,allocs,extra", "comma-separated metrics to gate: ns, allocs, extra, counts")
	flag.Parse()

	results, err := load(bufio.NewReader(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compareFile == "" {
		if err := encode(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	raw, err := os.ReadFile(*compareFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	baseline, version, err := decode(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", *compareFile, err)
		os.Exit(1)
	}
	if msg := checkToolchain(version, runtime.Version()); msg != "" {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %s\n", *compareFile, msg)
		os.Exit(1)
	}
	failures := compare(baseline, results, *tolerance, parseMetrics(*metrics))
	for _, f := range failures {
		fmt.Fprintln(os.Stdout, "FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stdout, "benchjson: %d regression(s) vs %s (tolerance %g%%)\n",
			len(failures), *compareFile, *tolerance)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stdout, "benchjson: %d benchmark(s) within %g%% of %s\n",
		len(baseline), *tolerance, *compareFile)
}

type gateSet struct{ ns, allocs, extra, counts bool }

func parseMetrics(s string) gateSet {
	var g gateSet
	for _, m := range strings.Split(s, ",") {
		switch strings.TrimSpace(m) {
		case "ns":
			g.ns = true
		case "allocs":
			g.allocs = true
		case "extra":
			g.extra = true
		case "counts":
			g.counts = true
		case "":
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown metric %q (want ns, allocs, extra, counts)\n", m)
			os.Exit(1)
		}
	}
	return g
}

// load reads the current run: a JSON artifact (first byte '{') or raw
// `go test -bench` output.
func load(r *bufio.Reader) (map[string]Entry, error) {
	head, err := r.Peek(1)
	if err == io.EOF {
		return map[string]Entry{}, nil
	}
	if err != nil {
		return nil, err
	}
	if head[0] == '{' {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		results, _, err := decode(data)
		if err != nil {
			return nil, fmt.Errorf("stdin looks like JSON but does not parse: %w", err)
		}
		return results, nil
	}
	return parse(bufio.NewScanner(r))
}

// toolchainKey is the one key of the JSON form that names no benchmark:
// the Go toolchain the benchmarks ran under.
const toolchainKey = "go_version"

// encode writes results as indented JSON, with this binary's toolchain
// under toolchainKey. encoding/json renders map keys sorted, so the
// artifact is stable.
func encode(w io.Writer, results map[string]Entry) error {
	out := make(map[string]any, len(results)+1)
	for name, e := range results {
		out[name] = e
	}
	out[toolchainKey] = runtime.Version()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// decode reads the JSON form: the benchmarks, and the toolchain they
// ran under ("" when the file records none).
func decode(data []byte) (map[string]Entry, string, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, "", err
	}
	var version string
	if v, ok := raw[toolchainKey]; ok {
		if err := json.Unmarshal(v, &version); err != nil {
			return nil, "", fmt.Errorf("%s: %w", toolchainKey, err)
		}
		delete(raw, toolchainKey)
	}
	results := make(map[string]Entry, len(raw))
	for name, v := range raw {
		var e Entry
		if err := json.Unmarshal(v, &e); err != nil {
			return nil, "", fmt.Errorf("%s: %w", name, err)
		}
		results[name] = e
	}
	return results, version, nil
}

// checkToolchain explains why a baseline recorded under toolchain base
// cannot gate a run under cur, or returns "" when it can.
func checkToolchain(base, cur string) string {
	switch base {
	case cur:
		return ""
	case "":
		return fmt.Sprintf("records no %s; re-record it under %s", toolchainKey, cur)
	}
	return fmt.Sprintf("recorded under %s, but this run uses %s: allocation counts differ between runtimes, so run the gate under %s or re-record the baseline", base, cur, base)
}

// compare checks every baseline benchmark against the current run and
// returns one message per violation, sorted by benchmark name (current-
// run benchmarks absent from the baseline are reported last).
//
// Lower-is-better ns/op and allocs/op fail when cur > base*(1+tol/100);
// a zero-alloc baseline therefore tolerates no allocations at all —
// that is the point, so produce baselines with -benchmem when gating
// allocs. With the counts gate, custom "/op" extras like probes/op are
// deterministic counts and fail on any rise: cur > base, whatever tol.
// Higher-is-better "/s" extras fail when cur < base*(1-tol/100).
// A zero ns/op baseline and extras absent from the baseline are not
// gated. Coverage must match in both directions: a benchmark in the
// baseline but not the run, or in the run but not the baseline, is a
// failure regardless of the gated metric set.
func compare(baseline, cur map[string]Entry, tol float64, g gateSet) []string {
	var failures []string
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		got, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from this run", name))
			continue
		}
		if g.ns && base.NsPerOp > 0 && got.NsPerOp > base.NsPerOp*(1+tol/100) {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.4g vs baseline %.4g (+%.1f%%)",
				name, got.NsPerOp, base.NsPerOp, pct(got.NsPerOp, base.NsPerOp)))
		}
		if g.allocs && got.AllocsPerOp > base.AllocsPerOp*(1+tol/100) {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %g vs baseline %g",
				name, got.AllocsPerOp, base.AllocsPerOp))
		}
		if g.extra || g.counts {
			units := make([]string, 0, len(base.Extra))
			for unit := range base.Extra {
				units = append(units, unit)
			}
			sort.Strings(units)
			for _, unit := range units {
				bv := base.Extra[unit]
				gv := got.Extra[unit]
				switch {
				case g.extra && strings.HasSuffix(unit, "/s"):
					// Throughput: higher is better.
					if bv > 0 && gv < bv*(1-tol/100) {
						failures = append(failures, fmt.Sprintf("%s: %s %.4g vs baseline %.4g (%.1f%%)",
							name, unit, gv, bv, pct(gv, bv)))
					}
				case g.counts && strings.HasSuffix(unit, "/op"):
					// Per-op counts (probes/op, sims/op) are exact: any rise
					// is a regression.
					if gv > bv {
						failures = append(failures, fmt.Sprintf("%s: %s %.4g vs baseline %.4g (+%.1f%%)",
							name, unit, gv, bv, pct(gv, bv)))
					}
				}
			}
		}
	}
	// Uncovered benchmarks: every benchmark the run produced must have a
	// baseline entry, or a new hot path ships permanently ungated.
	uncovered := make([]string, 0)
	for name := range cur {
		if _, ok := baseline[name]; !ok {
			uncovered = append(uncovered, name)
		}
	}
	sort.Strings(uncovered)
	for _, name := range uncovered {
		failures = append(failures, fmt.Sprintf("%s: present in this run but missing from the baseline (add it to the baseline file)", name))
	}
	return failures
}

func pct(cur, base float64) float64 { return (cur - base) / base * 100 }

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// from standard `go test -bench` output; all other lines pass through.
func parse(sc *bufio.Scanner) (map[string]Entry, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	results := make(map[string]Entry)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the -GOMAXPROCS suffix so names are stable across runners.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				// Custom b.ReportMetric units (evals/s, hit-rate, ...).
				if e.Extra == nil {
					e.Extra = make(map[string]float64)
				}
				e.Extra[unit] = v
			}
		}
		if e.NsPerOp > 0 {
			results[name] = e
		}
	}
	return results, sc.Err()
}
