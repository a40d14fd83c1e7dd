package sideeffect

import (
	"testing"

	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/printer"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// fuzzSeeds is the in-code seed corpus shared by both fuzz targets;
// testdata/fuzz/ holds the same programs (plus regression inputs) in
// the native corpus format so `go test` exercises them even without
// -fuzz.
func fuzzSeeds() []string {
	seeds := []string{
		"",
		"program t; begin end.",
		"program t; global g; proc p(ref x) begin x := g end; begin call p(g) end.",
		// Arrays, sections, and a loop — reaches the Section 6 lattice.
		`program s;
global A[8, 8];
global i, n;
proc row(ref j)
begin
  A[j, 3] := j
end;
begin
  for i := 1 to n do
    call row(i)
  end
end.`,
		// Nested procedures reach the multi-level GMOD driver.
		`program n;
global g;
proc outer(ref x)
  var t;
  proc inner(ref y)
  begin
    y := g;
    g := t
  end;
begin
  call inner(x);
  t := x
end;
begin
  call outer(g)
end.`,
		// Recursion through two mutually-calling procedures.
		`program r;
global g;
proc a(ref x)
begin
  if x < 10 then call b(x) end
end;
proc b(ref y)
begin
  y := y + 1;
  call a(y)
end;
begin
  call a(g)
end.`,
	}
	seeds = append(seeds,
		workload.Emit(workload.PaperExample()),
		workload.Emit(workload.DivideConquer()),
		workload.Emit(workload.Random(workload.DefaultConfig(6, 3))),
	)
	return seeds
}

// FuzzAnalyze feeds arbitrary text through the entire pipeline —
// parse, semantic analysis, pruning, both core problems, aliases,
// sections, and every report renderer — asserting it never panics,
// and that the sequential and parallel schedules agree on every input
// the pipeline accepts.
func FuzzAnalyze(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		seq, err := AnalyzeWith(src, Options{Workers: 1})
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		_ = seq.Report()
		_ = seq.CallSites()
		if _, err := report.JSON(seq.Mod, seq.Use, seq.Aliases, seq.SecMod); err != nil {
			t.Fatalf("JSON rendering failed: %v", err)
		}
		par, err := AnalyzeWith(src, Options{Workers: 4})
		if err != nil {
			t.Fatalf("parallel schedule rejected an accepted input: %v", err)
		}
		if seq.Report() != par.Report() {
			t.Errorf("sequential and parallel reports differ for:\n%s", src)
		}
	})
}

// FuzzRoundTrip checks the printer against the parser: any program
// that parses must print to text that re-parses, printing must be
// idempotent, and the printed form must analyze to the same
// position-free results as the original.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		out1 := printer.Print(prog)
		reparsed, err := parser.Parse(out1)
		if err != nil {
			t.Fatalf("printed program fails to re-parse: %v\n%s", err, out1)
		}
		if out2 := printer.Print(reparsed); out1 != out2 {
			t.Errorf("printer not idempotent:\n--- first\n%s\n--- second\n%s", out1, out2)
		}
		// The printed form must be semantically equivalent: identical
		// acceptance, and identical summaries (positions excluded —
		// formatting legitimately moves statements).
		a1, err1 := AnalyzeWith(src, Options{Workers: 1})
		a2, err2 := AnalyzeWith(out1, Options{Workers: 1})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("acceptance changed by printing: original err %v, printed err %v\n%s", err1, err2, out1)
		}
		if err1 != nil {
			return
		}
		s1 := report.Summaries(a1.Mod, a1.Use) + report.RMODTable(a1.Mod)
		s2 := report.Summaries(a2.Mod, a2.Use) + report.RMODTable(a2.Mod)
		if s1 != s2 {
			t.Errorf("summaries changed by printing:\n--- original\n%s\n--- printed\n%s", s1, s2)
		}
	})
}
