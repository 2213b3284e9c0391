package lint

import (
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// corpusFset and corpusImporter are shared across corpus loads so the
// standard library is type-checked from source once, not once per test.
var (
	corpusFset     = token.NewFileSet()
	corpusImporter = importer.ForCompiler(corpusFset, "source", nil)
)

func loadCorpus(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loadDir(corpusFset, corpusImporter, dir, "corpus/"+name)
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

// wantFindings extracts the `// want <check>` expectations from the
// corpus sources: a set of "file:line:check" strings.
func wantFindings(t *testing.T, pkg *Package) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				want[key(pos.Filename, pos.Line, m[1])] = true
			}
		}
	}
	return want
}

func key(file string, line int, check string) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line) + ":" + check
}

// runGolden asserts that the analyzer findings for a corpus package
// exactly match its `// want` annotations, line by line.
func runGolden(t *testing.T, corpus string, checks []string) {
	t.Helper()
	pkg := loadCorpus(t, corpus)
	want := wantFindings(t, pkg)
	got := make(map[string]bool)
	for _, f := range Analyze(pkg, checks) {
		got[key(f.Pos.Filename, f.Pos.Line, f.Check)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected finding missing: %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding: %s", k)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determ", []string{CheckDeterminism})
}

func TestGuardedByGolden(t *testing.T) {
	runGolden(t, "guarded", []string{CheckGuardedBy})
}

func TestErrcheckIOGolden(t *testing.T) {
	runGolden(t, "errio", []string{CheckErrcheckIO})
}

func TestFloatCmpGolden(t *testing.T) {
	runGolden(t, "fcmp", []string{CheckFloatCmp})
}

func TestLockOrderGolden(t *testing.T) {
	runGolden(t, "lockorder", []string{CheckLockOrder})
}

func TestHotPathAllocGolden(t *testing.T) {
	runGolden(t, "hotpath", []string{CheckHotPath})
}

func TestWireSchemaGolden(t *testing.T) {
	runGolden(t, "wireschema", []string{CheckWireSchema})
}

// TestMalformedDirectives asserts every broken arcslint: comment in the
// corpus surfaces as a "directive" finding, and that well-formed ones
// in the other corpora do not.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadCorpus(t, "baddirective")
	findings := Analyze(pkg, nil)
	wantLines := []int{7, 12, 17, 22, 26}
	got := make(map[int]bool)
	for _, f := range findings {
		if f.Check != CheckDirective {
			t.Errorf("unexpected non-directive finding: %s", f)
			continue
		}
		got[f.Pos.Line] = true
	}
	for _, line := range wantLines {
		if !got[line] {
			t.Errorf("no directive finding at baddirective.go:%d", line)
		}
	}
	if len(got) != len(wantLines) {
		t.Errorf("got directive findings at lines %v, want %v", got, wantLines)
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		wantNil bool
		wantErr bool
		verb    string
	}{
		{"// ordinary comment", true, false, ""},
		{"//arcslint:ignore floatcmp exact tie-break", false, false, verbIgnore},
		{"//arcslint:ignore all covered by test harness", false, false, verbIgnore},
		{"//arcslint:locked mu", false, false, verbLocked},
		{"//arcslint:locked walMu caller holds it", false, false, verbLocked},
		{"//arcslint:hotpath", false, false, verbHotpath},
		{"//arcslint:hotpath backs a 0-allocs/op baseline", false, false, verbHotpath},
		{"//arcslint:ignore", true, true, ""},
		{"//arcslint:ignore floatcmp", true, true, ""},
		{"//arcslint:ignore nosuch reason here", true, true, ""},
		{"//arcslint:locked", true, true, ""},
		{"//arcslint:locked 9bad", true, true, ""},
		{"//arcslint:", true, true, ""},
		{"//arcslint:unknownverb x", true, true, ""},
	}
	for _, c := range cases {
		d, err := parseDirective(c.text)
		if (d == nil) != c.wantNil || (err != nil) != c.wantErr {
			t.Errorf("parseDirective(%q) = %v, %v; want nil=%v err=%v", c.text, d, err, c.wantNil, c.wantErr)
			continue
		}
		if d != nil && d.verb != c.verb {
			t.Errorf("parseDirective(%q).verb = %q, want %q", c.text, d.verb, c.verb)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"...", "anything/at/all", true},
		{"arcs/...", "arcs", true},
		{"arcs/...", "arcs/internal/sim", true},
		{"arcs/...", "arcsx/internal", false},
		{"arcs/internal/sim", "arcs/internal/sim", true},
		{"arcs/internal/sim", "arcs/internal/simx", false},
		{"arcs/internal/...", "arcs/internal", true},
		{"arcs/internal/...", "arcs/cmd/arcsd", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pattern, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

func TestDefaultPolicyShape(t *testing.T) {
	pol := DefaultPolicy()
	// Every package is at least under the guardedby, lockorder, and
	// hotpath conventions.
	base := strings.Join([]string{CheckGuardedBy, CheckHotPath, CheckLockOrder}, ",")
	if got := strings.Join(pol.ChecksFor("arcs/internal/newpkg"), ","); got != base {
		t.Errorf("new package checks = %v, want [%s]", got, base)
	}
	// Only the codec is under the wire-schema contract.
	if checks := strings.Join(pol.ChecksFor("arcs/internal/codec"), ","); !strings.Contains(checks, CheckWireSchema) {
		t.Errorf("codec checks = %s, want wireschema included", checks)
	}
	for _, path := range []string{"arcs/internal/store", "arcs/internal/fleet"} {
		for _, c := range pol.ChecksFor(path) {
			if c == CheckWireSchema {
				t.Errorf("%s must not be under the wireschema contract", path)
			}
		}
	}
	// The deterministic set carries determinism and floatcmp.
	for _, path := range deterministicPackages {
		checks := strings.Join(pol.ChecksFor(path), ",")
		if !strings.Contains(checks, CheckDeterminism) || !strings.Contains(checks, CheckFloatCmp) {
			t.Errorf("%s checks = %s, want determinism+floatcmp", path, checks)
		}
	}
	// Serving packages are exempt from determinism (wall clocks are their job).
	for _, path := range []string{"arcs/internal/server", "arcs/internal/parfor", "arcs/internal/rapl"} {
		for _, c := range pol.ChecksFor(path) {
			if c == CheckDeterminism {
				t.Errorf("%s must not be under the determinism contract", path)
			}
		}
	}
}
