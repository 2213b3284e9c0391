package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arcs/internal/lint"
)

// TestListPackagesOutput checks the policy introspection path: every
// deterministic package must print with its checks, and serving
// packages must not carry determinism.
func TestListPackagesOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list-packages", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list-packages = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"arcs/internal/sim determinism,floatcmp,guardedby,hotpathalloc,lockorder",
		"arcs/internal/store errcheck-io,floatcmp,guardedby,hotpathalloc,lockorder",
		"arcs/internal/server floatcmp,guardedby,hotpathalloc,lockorder",
		"arcs/internal/codec determinism,errcheck-io,floatcmp,guardedby,hotpathalloc,lockorder,wireschema",
		"arcs/cmd/arcslint guardedby,hotpathalloc,lockorder",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("list-packages output missing %q\ngot:\n%s", want, out)
		}
	}
	if strings.Contains(out, "arcs/internal/server determinism") {
		t.Errorf("server must not be under the determinism contract:\n%s", out)
	}
}

// TestRunSinglePackage lints one small real package end to end and
// expects a clean exit.
func TestRunSinglePackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal/evalcache"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/package"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run bad pattern = %d, want 2", code)
	}
}

// TestSchemaOnlyClean runs the dedicated wire-schema gate the CI step
// uses; on a healthy tree the extracted schema matches the committed
// codec.lock.json and the gate is silent.
func TestSchemaOnlyClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-schema-only"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -schema-only = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean schema gate printed findings:\n%s", stdout.String())
	}
}

// TestUpdateSchemaNoop re-locks an already-current schema: no breaking
// changes, no additions, and the lockfile bytes must not change.
func TestUpdateSchemaNoop(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	lockPath := filepath.Join(root, lint.LockfileName)
	before, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatalf("read lockfile: %v", err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-update-schema"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -update-schema = %d, stderr: %s", code, stderr.String())
	}
	after, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatalf("re-read lockfile: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("no-op -update-schema changed %s", lint.LockfileName)
	}
	if !strings.Contains(stdout.String(), "updated") {
		t.Errorf("missing confirmation line, got: %s", stdout.String())
	}
}

// TestEmitJSONRoundTrip pins the -json wire: one object per line with
// file/line/col/check/message, parsing back to exactly the findings
// that went in, and exit codes matching the plain path.
func TestEmitJSONRoundTrip(t *testing.T) {
	in := []lint.Finding{
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Check: "lockorder", Message: "this path leaves mu locked"},
		{Pos: token.Position{Filename: "codec.lock.json", Line: 1, Column: 1}, Check: "wireschema", Message: `breaking wire change: message "x" removed`},
	}
	var stdout, stderr bytes.Buffer
	if code := emit(in, true, &stdout, &stderr); code != 1 {
		t.Fatalf("emit = %d, want 1 with findings", code)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(in) {
		t.Fatalf("emitted %d lines, want %d:\n%s", len(lines), len(in), stdout.String())
	}
	for i, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		want := jsonFinding{
			File:    in[i].Pos.Filename,
			Line:    in[i].Pos.Line,
			Col:     in[i].Pos.Column,
			Check:   in[i].Check,
			Message: in[i].Message,
		}
		if f != want {
			t.Errorf("line %d round-tripped to %+v, want %+v", i, f, want)
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr summary missing, got: %s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := emit(nil, true, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("emit(nil) = %d with output %q, want silent 0", code, stdout.String())
	}
}
