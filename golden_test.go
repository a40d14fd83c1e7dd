package sideeffect

import (
	"testing"

	"sideeffect/internal/workload"
)

// TestGoldenReport pins the complete formatted report for a fixed
// program against testdata/golden/report.txt. It exists to catch
// unintended changes in any layer — a solver regression, a precision
// change, or a formatting drift all show up as a diff here. Update
// deliberately with `go test -run TestGoldenReport -update` when
// behaviour is meant to change (the same flag refreshes the Go
// frontend corpus goldens; see gofront_corpus_test.go).
func TestGoldenReport(t *testing.T) {
	a, err := Analyze(goldenSrc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden/report.txt", a.Report())
}

// goldenSrc is the program whose report testdata/golden/report.txt
// pins.
const goldenSrc = `
program golden;
global g, h;
global A[4, 4];
proc swap(ref a, ref b)
  var t;
begin
  t := a; a := b; b := t
end;
proc colset(ref c[*], val v)
  var i;
begin
  for i := 1 to 4 do c[i] := v end
end;
begin
  call swap(g, h);
  call colset(A[*, 2], g)
end.
`

// TestLargeProgramRobustness exercises the full pipeline on a
// 20k-procedure program — the scale where quadratic missteps and
// recursion-depth bugs would surface. Skipped with -short.
func TestLargeProgramRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped in -short mode")
	}
	cfg := workload.DefaultConfig(20_000, 1)
	cfg.Globals = 2_000 // keep the bit vectors big but the run under a minute
	prog := workload.Random(cfg)
	a := AnalyzeProgramWith(prog, Options{})
	if a.Prog.NumProcs() < 20_000 {
		t.Fatalf("procs = %d", a.Prog.NumProcs())
	}
	// Sanity: main must reach effects.
	if a.Mod.GMOD[a.Prog.Main.ID].Len() == 0 {
		t.Error("GMOD(main) empty on large program")
	}
}
