package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTimes checks the self-time rule on hand-built spans: children
// that overlap count once, and a child reaching past its parent's end
// only covers the part inside the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "a", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", Trace: 1, ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", Trace: 1, ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "a.1", Trace: 1, ID: 5, Parent: 2, Start: 15, End: 20},
		{Name: "other", Trace: 6, ID: 6, Start: 0, End: 7},
	}
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

// TestTraceFile runs the traced lookup workload and checks the span file:
// ids are unique, every parent exists in the same trace, and a forwarded
// lookup reads client → server → peer hop → owner's server.
func TestTraceFile(t *testing.T) {
	cfg := testConfig(t, "lookup")
	cfg.trace = true
	def, _ := selected("lookup")
	r, err := runWorkload(cfg, def[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.spans != filepath.Join(cfg.workDir, "spans-lookup.jsonl") {
		t.Fatalf("spans written to %q", r.spans)
	}
	f, err := os.Open(r.spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[uint64]span)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d repeats", s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	forwarded := false
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Trace != s.ID {
				t.Errorf("root span %d has trace %d", s.ID, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Fatalf("span %d (%s): trace %d, parent's %d", s.ID, s.Name, s.Trace, p.Trace)
		}
		var chain []string
		for c := s; ; c = byID[c.Parent] {
			chain = append([]string{c.Name}, chain...)
			if c.Parent == 0 {
				break
			}
		}
		if len(chain) == 5 && chain[0] == "op.lookup" && chain[1] == "http.client" && chain[2] == "server.config" &&
			chain[3] == "fleet.peer" && chain[4] == "server.config" {
			forwarded = true
		}
	}
	if !forwarded {
		t.Error("no forwarded lookup traced as op.lookup → http.client → server.config → fleet.peer → server.config")
	}
}
