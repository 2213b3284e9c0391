package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/server"
	"arcs/internal/sim"
	"arcs/internal/store"
)

// End-to-end command tests: the offline strategy writes a history file the
// replay strategy can consume, and the profile/trace artifacts appear.
func TestRunOfflineThenReplay(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "history.json")

	cfg := runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 70,
		strategy: "offline", steps: 10, seed: 1, histPath: hist,
	}
	if err := run(cfg); err != nil {
		t.Fatalf("offline: %v", err)
	}
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatalf("history not written: %v", err)
	}
	if !strings.Contains(string(data), "x_solve") {
		t.Errorf("history missing regions:\n%s", data)
	}

	cfg.strategy = "replay"
	if err := run(cfg); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestRunKeysHistoryAtEffectiveCap: a cap above TDP runs at TDP, so the
// offline search saves its bests under the TDP cap and a later replay at
// TDP finds a tuned configuration for every region.
func TestRunKeysHistoryAtEffectiveCap(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "history.json")
	cfg := runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 200,
		strategy: "offline", steps: 3, seed: 1, histPath: hist,
	}
	if _, err := doRun(cfg); err != nil {
		t.Fatalf("offline: %v", err)
	}
	saved, err := arcs.LoadHistoryFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	tdp := sim.Crill().TDPW
	entries := saved.Entries()
	if len(entries) == 0 {
		t.Fatal("offline run saved no entries")
	}
	for _, e := range entries {
		if e.Key.CapW != tdp {
			t.Errorf("entry %s saved at cap %g W, want the %g W the machine ran at", e.Key.Region, e.Key.CapW, tdp)
		}
	}

	cfg.capW, cfg.strategy = 0, "replay"
	res, err := doRun(cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.reports) != len(entries) {
		t.Errorf("replay reported %d regions, history holds %d", len(res.reports), len(entries))
	}
	for _, r := range res.reports {
		if !r.Converged || r.Skipped {
			t.Errorf("region %s replayed no tuned configuration (%s)", r.Region, r.Config)
		}
	}
}

// TestHeaderNamesRunningCap: the report header names the cap the machine
// runs at, so a -cap above TDP reads as -cap 115 does on Crill, and -cap
// 0 still names the TDP level.
func TestHeaderNamesRunningCap(t *testing.T) {
	for _, tc := range []struct {
		capW float64
		want string
	}{
		{200, "SP.B on Crill at 115W, strategy default"},
		{115, "SP.B on Crill at 115W, strategy default"},
		{70, "SP.B on Crill at 70W, strategy default"},
		{0, "SP.B on Crill at TDP(115W), strategy default"},
	} {
		cfg := runCfg{app: "SP", workload: "B", arch: "crill", capW: tc.capW, strategy: "default", steps: 1}
		res, err := doRun(cfg)
		if err != nil {
			t.Fatalf("-cap %g: %v", tc.capW, err)
		}
		var out strings.Builder
		printResult(&out, cfg, res)
		if header, _, _ := strings.Cut(out.String(), "\n"); header != tc.want {
			t.Errorf("-cap %g: header %q, want %q", tc.capW, header, tc.want)
		}
	}
}

func TestRunOnlineWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := runCfg{
		app: "LULESH", workload: "45", arch: "crill",
		strategy: "online", steps: 5, seed: 2,
		profCSV:  filepath.Join(dir, "p.csv"),
		traceOut: filepath.Join(dir, "t.json"),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(cfg.profCSV)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if !strings.HasPrefix(string(csvData), "timer,calls,") {
		t.Errorf("profile header wrong: %.60s", csvData)
	}
	traceData, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(traceData), "traceEvents") {
		t.Errorf("trace malformed: %.60s", traceData)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runCfg{app: "NOPE", workload: "B", arch: "crill", strategy: "online"}); err == nil {
		t.Errorf("unknown app must fail")
	}
	if err := run(runCfg{app: "SP", workload: "B", arch: "nope", strategy: "online"}); err == nil {
		t.Errorf("unknown arch must fail")
	}
	if err := run(runCfg{app: "SP", workload: "B", arch: "crill", strategy: "sideways", steps: 2}); err == nil {
		t.Errorf("unknown strategy must fail")
	}
	if err := run(runCfg{app: "SP", workload: "B", arch: "crill", strategy: "replay", steps: 2}); err == nil {
		t.Errorf("replay without history must fail")
	}
	// Minotaur cannot be capped.
	if err := run(runCfg{app: "SP", workload: "B", arch: "minotaur", capW: 100, strategy: "online", steps: 2}); err == nil {
		t.Errorf("capping Minotaur must fail")
	}
}

func TestRunDefaultStrategy(t *testing.T) {
	if err := run(runCfg{app: "BT", workload: "B", arch: "crill", strategy: "default", steps: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestRunServerWarmStart is the -server acceptance test: a cold online
// run against a fresh arcsd store searches and reports its bests; a
// second identical run warm-starts from the served configurations and
// needs strictly fewer search evaluations (exact hits need none).
func TestRunServerWarmStart(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(server.New(server.Config{Store: st}))
	defer ts.Close()

	cfg := runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 70,
		strategy: "online", steps: 12, seed: 1, server: ts.URL,
	}
	evals := func(cfg runCfg) int {
		res, err := doRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range res.reports {
			n += r.Evals
		}
		return n
	}

	cold := evals(cfg)
	if cold == 0 {
		t.Fatal("cold run performed no search evaluations")
	}
	if st.Len() == 0 {
		t.Fatal("cold run reported nothing back to the store")
	}
	warm := evals(cfg)
	if warm >= cold {
		t.Errorf("warm run evals = %d, want < cold %d", warm, cold)
	}

	// -history and -server cannot be combined.
	bad := cfg
	bad.histPath = "x.json"
	if _, err := doRun(bad); err == nil {
		t.Errorf("-history with -server must fail")
	}
	// An unreachable server fails fast instead of silently tuning cold.
	bad = cfg
	bad.server = "http://127.0.0.1:1"
	if _, err := doRun(bad); err == nil {
		t.Errorf("unreachable server must fail")
	}
}

// TestRunServerOfflineReplay: the offline strategy persists to the
// service and a later replay run needs only the service.
func TestRunServerOfflineReplay(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(server.New(server.Config{Store: st}))
	defer ts.Close()

	cfg := runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 70,
		strategy: "offline", steps: 8, seed: 1, server: ts.URL,
	}
	if _, err := doRun(cfg); err != nil {
		t.Fatalf("offline via server: %v", err)
	}
	if st.Len() == 0 {
		t.Fatal("offline run saved nothing to the store")
	}
	cfg.strategy = "replay"
	res, err := doRun(cfg)
	if err != nil {
		t.Fatalf("replay via server: %v", err)
	}
	for _, r := range res.reports {
		if r.Evals != 0 {
			t.Errorf("replay region %s searched (%d evals)", r.Region, r.Evals)
		}
	}
}

// TestRunSurrogateStrategy: -strategy surrogate tunes under the learned
// search, and with -server transfer-seeds from a neighbouring cap's
// stored results instead of starting cold.
func TestRunSurrogateStrategy(t *testing.T) {
	// Bare surrogate run, no server: must tune and report evaluations.
	res, err := doRun(runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 70,
		strategy: "surrogate", steps: 12, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	for _, r := range res.reports {
		evals += r.Evals
	}
	if evals == 0 {
		t.Fatal("surrogate run performed no search evaluations")
	}

	// Transfer seeding: populate the store at cap 75, then tune cap 70.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(server.New(server.Config{Store: st}))
	defer ts.Close()
	warm := runCfg{
		app: "SP", workload: "B", arch: "crill", capW: 75,
		strategy: "online", steps: 12, seed: 1, server: ts.URL,
	}
	if _, err := doRun(warm); err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("seeding run saved nothing")
	}
	warm.capW = 70
	warm.strategy = "surrogate"
	if _, err := doRun(warm); err != nil {
		t.Fatalf("surrogate with transfer: %v", err)
	}

	// An unknown -algo fails fast.
	if _, err := doRun(runCfg{
		app: "SP", workload: "B", arch: "crill",
		strategy: "online", algo: "sideways", steps: 2,
	}); err == nil {
		t.Errorf("unknown -algo must fail")
	}
}
