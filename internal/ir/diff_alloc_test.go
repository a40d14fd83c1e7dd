package ir_test

import (
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/workload"
)

// TestAdditiveDeltaUnchangedAllocatesNothing: comparing a program with
// itself, or with a reparse of its source, finds every procedure's
// facts unchanged and builds no set difference for any of them.
func TestAdditiveDeltaUnchangedAllocatesNothing(t *testing.T) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(512, 1)))
	parse := func() *ir.Program {
		p, err := sem.AnalyzeSource(src)
		if err != nil {
			t.Fatal(err)
		}
		return p.Prune()
	}
	p, reparsed := parse(), parse()
	if p.NumProcs() < 512 {
		t.Fatalf("%d procedures, want at least 512", p.NumProcs())
	}
	for _, tc := range []struct {
		name     string
		old, new *ir.Program
	}{{"same program", p, p}, {"reparse", p, reparsed}} {
		allocs := testing.AllocsPerRun(20, func() {
			if mod, use, ok := ir.AdditiveDelta(tc.old, tc.new); !ok || len(mod)+len(use) != 0 {
				t.Fatalf("%s: ok %v, %d new facts", tc.name, ok, len(mod)+len(use))
			}
		})
		if allocs > 2 {
			t.Errorf("%s: AdditiveDelta allocated %.0f times, want at most 2", tc.name, allocs)
		}
	}
}
