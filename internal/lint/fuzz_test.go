package lint

import (
	"strings"
	"testing"
)

// FuzzParseDirective hardens the suppression-directive parser: whatever
// bytes appear after //arcslint:, the parser must return a structured
// directive or an error — never panic, and never both.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"// ordinary comment",
		"//arcslint:hotpath",
		"//arcslint:hotpath backs a 0-allocs/op baseline",
		"//arcslint:ignore floatcmp exact tie-break",
		"//arcslint:ignore all harness-controlled",
		"//arcslint:ignore guardedby constructor; not escaped",
		"//arcslint:locked mu",
		"//arcslint:locked walMu caller holds it",
		"//arcslint:ignore",
		"//arcslint:ignore floatcmp",
		"//arcslint:ignore nosuch reason",
		"//arcslint:locked 9bad",
		"//arcslint:",
		"//arcslint:\x00\xff",
		"//arcslint:ignore\tfloatcmp\ttabbed reason",
		"//arcslint:locked µtex",
		strings.Repeat("//arcslint:ignore floatcmp ", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := parseDirective(text)
		if d != nil && err != nil {
			t.Fatalf("parseDirective(%q) returned both a directive and an error", text)
		}
		if !strings.HasPrefix(text, directivePrefix) {
			if d != nil || err != nil {
				t.Fatalf("parseDirective(%q): non-directive comment produced output", text)
			}
			return
		}
		if d == nil {
			return // malformed: reported as a finding by the driver
		}
		switch d.verb {
		case verbIgnore:
			if d.check != "all" && !validChecks[d.check] {
				t.Fatalf("parseDirective(%q) accepted unknown check %q", text, d.check)
			}
			if d.reason == "" {
				t.Fatalf("parseDirective(%q) accepted an ignore without a reason", text)
			}
		case verbLocked:
			if !isIdent(d.mu) {
				t.Fatalf("parseDirective(%q) accepted invalid mutex name %q", text, d.mu)
			}
		case verbHotpath:
			// The reason is optional free text; nothing to validate.
		default:
			t.Fatalf("parseDirective(%q) returned unknown verb %q", text, d.verb)
		}
	})
}

// FuzzParseLockfile hardens the codec.lock.json parser: arbitrary
// bytes must yield a validated schema or an error — never a panic, and
// a schema that survives must re-marshal and re-parse identically
// (canonical form is a fixpoint).
func FuzzParseLockfile(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"format":1}`,
		`{"format":2}`,
		`{"format":1,"kinds":{"KindEntry":1,"KindReport":2}}`,
		`{"format":1,"kinds":{"":1}}`,
		`{"format":1,"versions":{"snapshotVersion":1}}`,
		`{"format":1,"versions":{"v":-3}}`,
		`{"format":1,"messages":{"Encoder.AppendEntry":[{"name":"entKey","num":1,"wire":"bytes"}]}}`,
		`{"format":1,"messages":{"m":[{"name":"a","num":1,"wire":"bytes"},{"name":"b","num":1,"wire":"varint"}]}}`,
		`{"format":1,"messages":{"m":[{"name":"a","num":1,"wire":"wat"}]}}`,
		`{"format":1,"columns":{"Encoder.AppendSnapshot":[{"name":"Key.App","wire":"uvarint"}]}}`,
		`{"format":1,"columns":{"f":[{"name":"","wire":"uvarint"}]}}`,
		`[1,2,3]`,
		`{"format":1,"kinds":{"K`,
		"\x00\xff{",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseLockfile(data)
		if s == nil && err == nil {
			t.Fatalf("ParseLockfile(%q) returned neither schema nor error", data)
		}
		if s == nil {
			return
		}
		again, err := ParseLockfile(s.Marshal())
		if err != nil {
			t.Fatalf("re-parse of marshalled schema failed: %v", err)
		}
		if string(again.Marshal()) != string(s.Marshal()) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\nvs\n%s", s.Marshal(), again.Marshal())
		}
	})
}
