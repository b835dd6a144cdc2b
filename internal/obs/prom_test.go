package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// checkGolden compares got with testdata/name, or rewrites the file when
// GOLDEN_REGEN=1 (run that only on the tree whose output is the reference).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (GOLDEN_REGEN=1 writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// goldenReport fills every section WritePrometheus renders, with floats
// that exercise the %g forms (fractions, exponents, integers).
func goldenReport() *Report {
	return &Report{
		Schema:   Schema,
		Workload: "dhry16",
		Level:    "Default",
		Modes: ModeResidency{RISCInstrs: 1234567, InterpInstrs: 89,
			RISCCycles: 1.5e6, InterpCycles: 1780.25, InterpFraction: 0.0011854},
		Escapes: []EscapeCount{{Reason: "computed-jump", Count: 3}, {Reason: "rp-mismatch", Count: 1}},
		PMap:    PMapStats{Lookups: 10, Hits: 7},
		Procs: []ProcResidency{
			{Name: "main", Space: "user", RISCInstrs: 1000000, InterpInstrs: 89},
			{Name: "$lib_copy", Space: "lib", RISCInstrs: 234567},
		},
		Phases:      []PhaseTiming{{Phase: "analyze", Seconds: 0.000125}, {Phase: "translate", Seconds: 2}},
		Degraded:    true,
		Quarantined: []QuarantinedProc{{Name: "addup", Space: "user", Traps: 4}},
	}
}

// TestPrometheusGolden pins the run-report exposition byte for byte:
// names, HELP/TYPE lines, label sets, series order and value formatting.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenReport().WritePrometheus(&buf)
	checkGolden(t, "report.prom", buf.Bytes())
}

// TestPromLabelEscaping: a label value carries only the text format's
// three escapes; every other character is literal, and invalid UTF-8
// becomes U+FFFD.
func TestPromLabelEscaping(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"main", "main"},
		{"tab\there", "tab\there"},
		{"ctl\x01", "ctl\x01"},
		{"nbsp\u00a0", "nbsp\u00a0"},
		{"bad\xff\xfeutf8", "bad\uFFFDutf8"},
		{"two\nlines", `two\nlines`},
		{`say "hi"`, `say \"hi\"`},
		{`C:\tmp`, `C:\\tmp`},
	} {
		if got := promLabel(c.in); got != c.want {
			t.Errorf("promLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// sampleLine is one series line of the text format: a name, optional
// labels whose values use only the \\, \" and \n escapes, and a value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? \S+$`)

// TestPromHostileNames: proc names from an untrusted codefile and escape
// reasons from a merged report cannot break the scrape — a tab stays a
// literal tab, and every line still parses.
func TestPromHostileNames(t *testing.T) {
	rep := &Report{Schema: Schema, Workload: "w\"x", Level: "Default",
		Escapes: []EscapeCount{{Reason: "odd\\reason\n", Count: 1}},
		Procs: []ProcResidency{
			{Name: "a\tb", Space: "user", RISCInstrs: 1},
			{Name: "\x01\xffproc", Space: "user"},
		}}
	var buf bytes.Buffer
	rep.WritePrometheus(&buf)
	out := buf.String()
	if want := "tnsr_proc_instructions_total{proc=\"a\tb\",space=\"user\",mode=\"risc\"} 1\n"; !strings.Contains(out, want) {
		t.Errorf("missing %q in:\n%s", want, out)
	}
	if !utf8.ValidString(out) {
		t.Error("exposition is not valid UTF-8")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") && !sampleLine.MatchString(line) {
			t.Errorf("unparseable line %q", line)
		}
	}
}
