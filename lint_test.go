package sideeffect

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/printer"
	"sideeffect/internal/lint"
)

// lintFixtures returns the analyzable fixture basenames under
// testdata/lint (broken.mpl, the deliberate parse failure, excluded).
func lintFixtures(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("testdata/lint/*.mpl")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		if base := strings.TrimSuffix(filepath.Base(p), ".mpl"); base != "broken" {
			out = append(out, base)
		}
	}
	if len(out) < 7 {
		t.Fatalf("expected at least 7 lint fixtures, found %d", len(out))
	}
	return out
}

func lintFixture(t *testing.T, base string, opts Options) (string, *lint.Report) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "lint", base+".mpl"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeWith(string(src), opts)
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	rep, err := a.Lint(lint.Config{})
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	return string(src), rep
}

// TestLintGolden pins all three writers' output for every fixture,
// under both the sequential and the parallel analysis schedule. The
// goldens double as the format-stability contract for SARIF consumers.
func TestLintGolden(t *testing.T) {
	for _, base := range lintFixtures(t) {
		for _, opts := range []Options{{Workers: 1}, {Workers: 4}} {
			_, rep := lintFixture(t, base, opts)
			files := []lint.FileReport{{File: "testdata/lint/" + base + ".mpl", Report: rep}}
			renders := map[string]func() (string, error){
				"txt":   func() (string, error) { return lint.Text(files), nil },
				"json":  func() (string, error) { return lint.JSON(files) },
				"sarif": func() (string, error) { return lint.SARIF(files) },
			}
			for ext, render := range renders {
				got, err := render()
				if err != nil {
					t.Fatalf("%s.%s: %v", base, ext, err)
				}
				goldenPath := filepath.Join("testdata", "lint", base+".golden."+ext)
				want, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				if got != string(want) {
					t.Errorf("%s.%s drifted (opts %+v):\n--- got\n%s\n--- want\n%s",
						base, ext, opts, got, want)
				}
			}
		}
	}
}

// TestLintRulesFire asserts each fixture is a true positive for exactly
// the rules it was written to trigger — and nothing else.
func TestLintRulesFire(t *testing.T) {
	want := map[string][]string{
		"se001_refval":     {"SE001"},
		"se002_pure":       {"SE002"},
		"se003_alias":      {"SE003"},
		"se004_deadglobal": {"SE004"},
		"se005_ignorable":  {"SE005"},
		"se006_loops":      {"SE006", "SE007"},
		"clean":            {},
	}
	for base, rules := range want {
		_, rep := lintFixture(t, base, Options{})
		var got []string
		for _, d := range rep.Diags {
			got = append(got, d.Rule)
		}
		if len(got) == 0 && len(rules) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, rules) {
			t.Errorf("%s: fired %v, want %v", base, got, rules)
		}
	}
}

// TestLintDeterministic mirrors TestReportersDeterministic for the
// diagnostics engine: two independent analyses of the same source, and
// repeated renders of one report, must be byte-identical in every
// format — including on the randomized determinism workloads, which
// exercise the rules far beyond the hand-written fixtures.
func TestLintDeterministic(t *testing.T) {
	srcs := determinismSources()
	for _, base := range []string{"se006_loops", "se003_alias"} {
		b, err := os.ReadFile(filepath.Join("testdata", "lint", base+".mpl"))
		if err != nil {
			t.Fatal(err)
		}
		srcs[base] = string(b)
	}
	for name, src := range srcs {
		a1, err := AnalyzeWith(src, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a2, err := AnalyzeWith(src, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1, err := a1.Lint(lint.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, err := a2.Lint(lint.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: lint reports differ between sequential and parallel runs", name)
		}
		f1 := []lint.FileReport{{File: name, Report: r1}}
		f2 := []lint.FileReport{{File: name, Report: r2}}
		j1, err := lint.JSON(f1)
		if err != nil {
			t.Fatal(err)
		}
		j2, _ := lint.JSON(f2)
		if j1 != j2 {
			t.Errorf("%s: JSON lint output differs across runs", name)
		}
		s1, err := lint.SARIF(f1)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := lint.SARIF(f2)
		if s1 != s2 {
			t.Errorf("%s: SARIF lint output differs across runs", name)
		}
		if lint.Text(f1) != lint.Text(f2) {
			t.Errorf("%s: text lint output differs across runs", name)
		}
		// Repeated renders of one report are identical too.
		if j11, _ := lint.JSON(f1); j11 != j1 {
			t.Errorf("%s: JSON differs between two renders of one report", name)
		}
	}
}

// TestLintLeavesStagesUnchanged: Lint only reads the analysis. A run
// with a zero Config is untimed, so a profiled analysis's Stages reads
// the same before and after it.
func TestLintLeavesStagesUnchanged(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "lint", "se003_alias.mpl"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeWith(string(b), Options{Workers: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Stages.Snapshot()
	if _, err := a.Lint(lint.Config{}); err != nil {
		t.Fatal(err)
	}
	if after := a.Stages.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("Lint wrote the analysis's profile: %d stages before, %d after", len(before), len(after))
	}
}

// TestLintConfig exercises rule selection, severity overrides, the
// minimum-severity filter, and configuration error reporting.
func TestLintConfig(t *testing.T) {
	src, err := os.ReadFile("testdata/lint/se004_deadglobal.mpl")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(string(src))
	if err != nil {
		t.Fatal(err)
	}

	// Enable narrows to exactly the named rules (by ID or slug).
	rep, err := a.Lint(lint.Config{Enable: []string{"dead-global"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) != 1 || rep.Diags[0].Rule != "SE004" {
		t.Fatalf("Enable: got %+v", rep.Diags)
	}
	if len(rep.Counts) != 1 {
		t.Fatalf("Enable: counts should list only the selected rule: %v", rep.Counts)
	}

	// Disable removes a rule; the rest keep running.
	rep, err = a.Lint(lint.Config{Disable: []string{"SE004"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diags {
		if d.Rule == "SE004" {
			t.Fatalf("Disable: SE004 still fired")
		}
	}
	if _, ok := rep.Counts["SE004"]; ok {
		t.Fatalf("Disable: SE004 still counted")
	}

	// Severity overrides re-level findings; MinSeverity filters but
	// keeps the rule's zero count visible.
	rep, err = a.Lint(lint.Config{
		Severity:    map[string]lint.Severity{"SE004": lint.Error},
		MinSeverity: lint.Error,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) != 1 || rep.Diags[0].Severity != lint.Error {
		t.Fatalf("Severity override: got %+v", rep.Diags)
	}
	if n, ok := rep.Counts["SE001"]; !ok || n != 0 {
		t.Fatalf("MinSeverity: filtered rule should count 0, got %v", rep.Counts)
	}

	// Unknown rule names are configuration errors.
	if _, err := a.Lint(lint.Config{Enable: []string{"SE999"}}); err == nil {
		t.Fatal("unknown rule accepted")
	}
	if _, err := a.Lint(lint.Config{Disable: []string{"nope"}}); err == nil {
		t.Fatal("unknown disable accepted")
	}
}

// wordAt returns the identifier or keyword starting at a 1-based
// (line, col) position in src — what a diagnostic position points at.
func wordAt(t *testing.T, src string, line, col int) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		t.Fatalf("position line %d out of range (%d lines)", line, len(lines))
	}
	l := lines[line-1]
	if col < 1 || col > len(l) {
		t.Fatalf("position col %d out of range on line %d: %q", col, line, l)
	}
	rest := l[col-1:]
	end := 0
	for end < len(rest) {
		c := rest[end]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			end++
		} else {
			break
		}
	}
	return rest[:end]
}

// checkLintPositions asserts every diagnostic's position points at the
// token it claims to be about: the subject identifier for
// variable-anchored rules, the introducing keyword otherwise.
func checkLintPositions(t *testing.T, src string, rep *lint.Report) {
	t.Helper()
	for _, d := range rep.Diags {
		var want string
		switch d.Rule {
		case "SE001", "SE004": // anchored at the variable's declaration
			want = d.Subject
		case "SE002":
			want = "proc"
		case "SE003", "SE005":
			want = "call"
		case "SE006", "SE007":
			want = "for"
		default:
			t.Fatalf("unknown rule %s in position check", d.Rule)
		}
		if got := wordAt(t, src, d.Pos.Line, d.Pos.Col); got != want {
			t.Errorf("%s at %s points at %q, want %q", d.Rule, d.Pos, got, want)
		}
	}
}

// TestLintPositionRoundTrip verifies diagnostic positions against the
// source text, then round-trips the program through the canonical
// printer and verifies them again on the printed text: positions must
// survive reformatting, not just the original layout. Every rule is
// covered (the fixture set fires all seven).
func TestLintPositionRoundTrip(t *testing.T) {
	total := 0
	for _, base := range lintFixtures(t) {
		src, rep := lintFixture(t, base, Options{})
		checkLintPositions(t, src, rep)
		total += len(rep.Diags)

		tree, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		printed := printer.Print(tree)
		a, err := Analyze(printed)
		if err != nil {
			t.Fatalf("%s (printed): %v", base, err)
		}
		rep2, err := a.Lint(lint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkLintPositions(t, printed, rep2)

		// Printing must not change what fires, only where.
		if len(rep2.Diags) != len(rep.Diags) {
			t.Fatalf("%s: printing changed findings: %d vs %d", base, len(rep.Diags), len(rep2.Diags))
		}
		for i := range rep.Diags {
			if rep.Diags[i].Rule != rep2.Diags[i].Rule || rep.Diags[i].Subject != rep2.Diags[i].Subject {
				t.Errorf("%s: finding %d changed identity after printing", base, i)
			}
		}
	}
	if total == 0 {
		t.Fatal("no diagnostics checked")
	}
}

// FuzzLint feeds arbitrary text through analysis plus the diagnostics
// engine and all three writers, asserting the engine never panics,
// accepts every analyzable input, agrees with the reference engine,
// and is deterministic on repeated runs over independently recomputed
// results.
func FuzzLint(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, base := range []string{"se003_alias", "se005_ignorable", "se006_loops"} {
		b, err := os.ReadFile(filepath.Join("testdata", "lint", base+".mpl"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		a1, err := AnalyzeWith(src, Options{Workers: 1})
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		r1, err := a1.Lint(lint.Config{})
		if err != nil {
			t.Fatalf("lint rejected an analyzable input: %v", err)
		}
		if ref := referenceLint(t, a1, lint.Config{}); !reflect.DeepEqual(r1, ref) {
			t.Errorf("the engine's report differs from the reference: %s\nfor:\n%s", reportDiff(r1, ref), src)
		}
		files := []lint.FileReport{{File: "fuzz.mpl", Report: r1}}
		if _, err := lint.JSON(files); err != nil {
			t.Fatalf("JSON writer failed: %v", err)
		}
		sarif1, err := lint.SARIF(files)
		if err != nil {
			t.Fatalf("SARIF writer failed: %v", err)
		}
		_ = lint.Text(files)

		a2, err := AnalyzeWith(src, Options{Workers: 4})
		if err != nil {
			t.Fatalf("parallel schedule rejected an accepted input: %v", err)
		}
		r2, err := a2.Lint(lint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sarif2, err := lint.SARIF([]lint.FileReport{{File: "fuzz.mpl", Report: r2}})
		if err != nil {
			t.Fatal(err)
		}
		if sarif1 != sarif2 {
			t.Errorf("lint output differs across analysis runs for:\n%s", src)
		}
	})
}
