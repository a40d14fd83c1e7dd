package sideeffect

import (
	"fmt"
	"reflect"
	"testing"

	"sideeffect/internal/binding"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// Determinism tests: two runs of the pipeline over the same source
// must render byte-identical output in every emitted format, and
// repeated queries on one result must return identical values. Map
// iteration order, goroutine scheduling, and pooled-scratch reuse are
// the usual ways this breaks; these tests pin it.

func determinismSources() map[string]string {
	srcs := map[string]string{
		"paper":  workload.Emit(workload.PaperExample()),
		"divide": workload.Emit(workload.DivideConquer()),
		"tower":  workload.Emit(workload.NestedTower(4)),
	}
	for seed := int64(0); seed < 6; seed++ {
		srcs[fmt.Sprintf("rand%d", seed)] = workload.Emit(workload.Random(workload.DefaultConfig(25, 40+seed)))
	}
	return srcs
}

func TestReportersDeterministic(t *testing.T) {
	for name, src := range determinismSources() {
		a1, err := Analyze(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a2, err := Analyze(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r1, r2 := a1.Report(), a2.Report(); r1 != r2 {
			t.Errorf("%s: Report not deterministic across runs", name)
		}
		// Each renderer run twice on each result: all four byte-equal.
		j11, err := a1.JSONReport().Render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j12, _ := a1.JSONReport().Render()
		j21, _ := a2.JSONReport().Render()
		if j11 != j12 {
			t.Errorf("%s: JSON differs between two renders of one result", name)
		}
		if j11 != j21 {
			t.Errorf("%s: JSON differs between two analysis runs", name)
		}
		if d1, d2 := report.DotCallGraph(a1.Prog), report.DotCallGraph(a2.Prog); d1 != d2 {
			t.Errorf("%s: DOT call graph not deterministic", name)
		}
		b1, b2 := binding.Build(a1.Prog), binding.Build(a2.Prog)
		if report.DotBinding(b1) != report.DotBinding(b2) {
			t.Errorf("%s: DOT binding graph not deterministic", name)
		}
		for i := range a1.Prog.Sites {
			s1 := a1.CallSites()[i]
			s2 := a2.CallSites()[i]
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("%s: call site %d differs across runs:\n%+v\n%+v", name, i, s1, s2)
			}
		}
	}
}

// TestLoopVerdictDeterministic pins the ordering of
// LoopVerdict.Conflicts and Sections: the same query on the same
// program, and on an independently recomputed result, must give
// identical slices (both are sorted by variable ID internally).
func TestLoopVerdictDeterministic(t *testing.T) {
	src := `
program lv;
global A[8, 8], B[8], hist[8];
global i, g;
proc touch(val k)
begin
  A[k, 2] := k;
  B[k] := g;
  hist[B[k]] := hist[B[k]] + 1
end;
begin
  for i := 1 to 8 do
    call touch(i)
  end
end.
`
	a1, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := a1.LoopParallelizable("i", 0)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		vr, err := a1.LoopParallelizable("i", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v1, vr) {
			t.Fatalf("repeat %d: verdict changed on the same result:\n%+v\n%+v", rep, v1, vr)
		}
	}
	v2, err := a2.LoopParallelizable("i", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("verdict differs across analysis runs:\n%+v\n%+v", v1, v2)
	}
}
