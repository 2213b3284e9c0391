package bench

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenPath is arcsbench's committed stdout at the repository root.
const goldenPath = "../../results_arcsbench.txt"

// completedLine ends each experiment's block in the golden file; blocks
// after the first start with the separator arcsbench prints.
var (
	completedLine = regexp.MustCompile(`(?m)^\[([a-z0-9-]+) completed in [0-9.]+s\]\n`)
	blockSep      = "\n" + strings.Repeat("=", 64) + "\n\n"
)

// parseGolden splits arcsbench's output into each experiment's exact
// output, dropping the timing lines.
func parseGolden(text string) map[string]string {
	out := make(map[string]string)
	for rest := text; ; {
		loc := completedLine.FindStringSubmatchIndex(rest)
		if loc == nil {
			return out
		}
		out[rest[loc[2]:loc[3]]] = strings.TrimPrefix(rest[:loc[0]], blockSep)
		rest = rest[loc[1]:]
	}
}

// shortGolden is the subset checked under -short and the race detector,
// where the whole suite takes too long: the machine sweep, offline and
// online tuning on NPB and LULESH, and the search cache.
var shortGolden = map[string]bool{
	"fig1": true, "tab2": true, "fig6": true, "fig9": true, "searchcache": true,
}

// TestExperimentsMatchGolden runs the paper suite through the harness pool
// at width 2 and requires each experiment's output to equal its block of
// results_arcsbench.txt byte for byte.
func TestExperimentsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := parseGolden(string(data))
	var exps []Experiment
	for _, e := range Experiments() {
		if (testing.Short() || raceEnabled) && !shortGolden[e.ID] {
			continue
		}
		exps = append(exps, e)
	}
	withParallelism(t, 2)
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	_ = ForEach(len(exps), func(i int) error {
		errs[i] = exps[i].Run(&bufs[i])
		return errs[i]
	})
	for i, e := range exps {
		want, ok := golden[e.ID]
		switch {
		case !ok:
			t.Errorf("%s: no block in %s", e.ID, goldenPath)
		case errs[i] != nil:
			t.Errorf("%s: %v", e.ID, errs[i])
		case bufs[i].String() != want:
			t.Errorf("%s: output differs from its block in %s\n got:\n%s\nwant:\n%s",
				e.ID, goldenPath, bufs[i].String(), want)
		}
	}
}
