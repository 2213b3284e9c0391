package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Check names. CheckDirective is the driver's own check for malformed
// arcslint: comments; it is always on and cannot be suppressed.
const (
	CheckDeterminism = "determinism"
	CheckGuardedBy   = "guardedby"
	CheckErrcheckIO  = "errcheck-io"
	CheckFloatCmp    = "floatcmp"
	CheckDirective   = "directive"
	CheckWireSchema  = "wireschema"
	CheckLockOrder   = "lockorder"
	CheckHotPath     = "hotpathalloc"
)

// validChecks are the names accepted in ignore directives ("all"
// additionally suppresses every check on a line).
var validChecks = map[string]bool{
	CheckDeterminism: true,
	CheckGuardedBy:   true,
	CheckErrcheckIO:  true,
	CheckFloatCmp:    true,
	CheckWireSchema:  true,
	CheckLockOrder:   true,
	CheckHotPath:     true,
}

// Rule enables a set of checks for the packages matching Pattern: an
// exact import path, or a prefix pattern ending in "/..." ("..." alone
// matches everything).
type Rule struct {
	Pattern string
	Checks  []string
}

// Policy is the per-package check table. A package gets the union of
// the checks from every rule whose pattern matches its import path; a
// package no rule matches is not analyzed at all.
type Policy struct {
	Rules []Rule
}

// ChecksFor returns the checks enabled for an import path, sorted and
// deduplicated.
func (p Policy) ChecksFor(path string) []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		if matchPattern(r.Pattern, path) {
			for _, c := range r.Checks {
				set[c] = true
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// matchPattern reports whether an import path matches a rule pattern.
// "..." matches everything; "prefix/..." matches prefix and anything
// under it; anything else is an exact match.
func matchPattern(pattern, path string) bool {
	if pattern == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}

// deterministicPackages are the packages under the determinism
// contract: the simulator, the search stack, the tuner core, the eval
// cache, the kernels, the benchmark harness, the binary codec (the same
// value must always encode to the same bytes — WAL replay and the CI
// perf gate both depend on it), and the fault-injection subsystem (a
// chaos run must reproduce exactly from its seed) must produce
// byte-identical results for identical inputs at any parallelism.
// Serving and measurement packages (server, parfor, rapl, trace,
// cmd/arcsbench, examples) legitimately read wall clocks and are
// exempt — see DESIGN.md §9.
var deterministicPackages = []string{
	"arcs/internal/sim",
	"arcs/internal/harmony",
	"arcs/internal/surrogate",
	"arcs/internal/core",
	"arcs/internal/evalcache",
	"arcs/internal/kernels",
	"arcs/internal/bench",
	"arcs/internal/faults",
	"arcs/internal/codec",
	"arcs/internal/fleet",
}

// DefaultPolicy is the repository contract enforced in CI.
func DefaultPolicy() Policy {
	p := Policy{Rules: []Rule{
		// The guarded-field convention applies module-wide: the check
		// only fires where a `guarded by` annotation exists. The same
		// goes for lockorder (fires only where mutexes are acquired)
		// and hotpathalloc (fires only inside //arcslint:hotpath
		// functions), so both are on everywhere too.
		{Pattern: "arcs/...", Checks: []string{CheckGuardedBy, CheckLockOrder, CheckHotPath}},
		// The wire format is append-only; the extracted schema must
		// match the committed codec.lock.json.
		{Pattern: "arcs/internal/codec", Checks: []string{CheckWireSchema}},
		// Durability and artifact paths must not drop I/O errors.
		{Pattern: "arcs/internal/store", Checks: []string{CheckErrcheckIO, CheckFloatCmp}},
		{Pattern: "arcs/internal/bench", Checks: []string{CheckErrcheckIO}},
		{Pattern: "arcs/cmd/benchjson", Checks: []string{CheckErrcheckIO}},
		// Frames feed the WAL: a dropped write error is silent data loss.
		{Pattern: "arcs/internal/codec", Checks: []string{CheckErrcheckIO}},
		// Keep-best and serving comparisons.
		{Pattern: "arcs/internal/server", Checks: []string{CheckFloatCmp}},
		{Pattern: "arcs/internal/storeclient", Checks: []string{CheckFloatCmp}},
	}}
	for _, path := range deterministicPackages {
		p.Rules = append(p.Rules, Rule{Pattern: path, Checks: []string{CheckDeterminism, CheckFloatCmp}})
	}
	return p
}

func checkNames() []string {
	out := make([]string, 0, len(validChecks))
	for c := range validChecks {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Directive parsing. A directive is a line comment that begins exactly
// with "//arcslint:" — no space after "//", like //go: directives —
// followed by a verb:
//
//	//arcslint:ignore <check> <reason>   suppress <check> on this line
//	                                     (or the line below, when the
//	                                     directive stands alone)
//	//arcslint:locked <mu> [reason]      this function's caller holds <mu>
//	//arcslint:hotpath [reason]          this function is a zero-alloc
//	                                     hot path; hotpathalloc flags
//	                                     AST-visible escape patterns in it
//
// The reason is mandatory for ignore: an unexplained suppression is a
// malformed directive and fails the build.
const directivePrefix = "//arcslint:"

const (
	verbIgnore  = "ignore"
	verbLocked  = "locked"
	verbHotpath = "hotpath"
)

type directive struct {
	verb   string
	check  string // verbIgnore: the suppressed check, or "all"
	mu     string // verbLocked: the mutex field name
	reason string
}

// parseDirective parses one comment's raw text. It returns (nil, nil)
// for comments that are not arcslint directives at all, and a non-nil
// error for directives that are present but malformed. It never
// panics, whatever the input (FuzzParseDirective).
func parseDirective(text string) (*directive, error) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return nil, nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, fmt.Errorf("arcslint: empty directive (want %signore or %slocked)", directivePrefix, directivePrefix)
	}
	switch fields[0] {
	case verbIgnore:
		if len(fields) < 2 {
			return nil, fmt.Errorf("arcslint: ignore directive missing a check name (want %signore <check> <reason>)", directivePrefix)
		}
		check := fields[1]
		if check != "all" && !validChecks[check] {
			return nil, fmt.Errorf("arcslint: ignore directive names unknown check %q (valid: %s, all)", check, strings.Join(checkNames(), ", "))
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("arcslint: ignore %s needs a reason (want %signore %s <reason>)", check, directivePrefix, check)
		}
		return &directive{verb: verbIgnore, check: check, reason: strings.Join(fields[2:], " ")}, nil
	case verbLocked:
		if len(fields) < 2 {
			return nil, fmt.Errorf("arcslint: locked directive missing a mutex name (want %slocked <mu>)", directivePrefix)
		}
		mu := fields[1]
		if !isIdent(mu) {
			return nil, fmt.Errorf("arcslint: locked directive: %q is not a valid field name", mu)
		}
		return &directive{verb: verbLocked, mu: mu, reason: strings.Join(fields[2:], " ")}, nil
	case verbHotpath:
		return &directive{verb: verbHotpath, reason: strings.Join(fields[1:], " ")}, nil
	default:
		return nil, fmt.Errorf("arcslint: unknown directive verb %q (want ignore, locked, or hotpath)", fields[0])
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
