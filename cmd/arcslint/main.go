// Command arcslint runs the repository's domain-specific static
// analyzers (internal/lint) over the module and exits non-zero on any
// finding. It is stdlib-only and runs in CI right after `go vet`:
//
//	go run ./cmd/arcslint ./...
//
// Patterns are module-relative ("./...", "./internal/store",
// "./internal/...", or full import paths). The per-package check table
// is lint.DefaultPolicy; -list-packages prints which checks apply where
// without analyzing anything.
//
// Wire-schema lockfile modes:
//
//	-schema-only            run just the codec schema extraction and
//	                        the diff against codec.lock.json (the
//	                        dedicated CI step)
//	-update-schema          re-extract and rewrite codec.lock.json;
//	                        refuses breaking (non-append-only) changes
//	-force-schema           with -update-schema, write anyway — for a
//	                        deliberate, versioned format migration
//
// -json prints findings as one JSON object per line
// ({"file","line","col","check","message"}) for CI annotations and
// tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"arcs/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arcslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listPkgs := fs.Bool("list-packages", false, "print each package and its enabled checks, then exit")
	jsonOut := fs.Bool("json", false, "print findings as one JSON object per line")
	schemaOnly := fs.Bool("schema-only", false, "run only the wire-schema gate (codec extraction + lockfile diff)")
	updateSchema := fs.Bool("update-schema", false, "re-extract the codec schema and rewrite codec.lock.json (append-only changes)")
	forceSchema := fs.Bool("force-schema", false, "with -update-schema: accept breaking changes (deliberate format migration)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "arcslint:", err)
		return 2
	}

	if *updateSchema {
		breaking, additions, err := lint.UpdateSchemaLock(root, *forceSchema)
		if err != nil {
			fmt.Fprintln(stderr, "arcslint:", err)
			return 2
		}
		if len(breaking) > 0 {
			fmt.Fprintln(stderr, "arcslint: refusing to lock breaking wire changes (use -force-schema for a deliberate format migration):")
			for _, b := range breaking {
				fmt.Fprintln(stderr, "  "+b)
			}
			return 1
		}
		for _, a := range additions {
			fmt.Fprintln(stdout, "locked: "+a)
		}
		fmt.Fprintf(stdout, "%s updated\n", lint.LockfileName)
		return 0
	}

	if *schemaOnly {
		findings, err := lint.SchemaGate(root)
		if err != nil {
			fmt.Fprintln(stderr, "arcslint:", err)
			return 2
		}
		return emit(findings, *jsonOut, stdout, stderr)
	}

	pol := lint.DefaultPolicy()

	if *listPkgs {
		if err := listPackages(root, patterns, pol, stdout); err != nil {
			fmt.Fprintln(stderr, "arcslint:", err)
			return 2
		}
		return 0
	}

	findings, err := lint.Run(root, patterns, pol)
	if err != nil {
		fmt.Fprintln(stderr, "arcslint:", err)
		return 2
	}
	return emit(findings, *jsonOut, stdout, stderr)
}

// jsonFinding is the machine-readable -json form, one object per line.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func emit(findings []lint.Finding, asJSON bool, stdout, stderr io.Writer) int {
	for _, f := range findings {
		if asJSON {
			b, err := json.Marshal(jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Check:   f.Check,
				Message: f.Message,
			})
			if err != nil {
				fmt.Fprintln(stderr, "arcslint:", err)
				return 2
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "arcslint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// listPackages prints the resolved policy per package — the mechanical
// answer to "which packages are under which contract".
func listPackages(root string, patterns []string, pol lint.Policy, w io.Writer) error {
	paths, err := lint.ListPackages(root, patterns)
	if err != nil {
		return err
	}
	for _, path := range paths {
		checks := pol.ChecksFor(path)
		if len(checks) == 0 {
			fmt.Fprintf(w, "%s (no checks)\n", path)
			continue
		}
		fmt.Fprintf(w, "%s ", path)
		for i, c := range checks {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	return nil
}
