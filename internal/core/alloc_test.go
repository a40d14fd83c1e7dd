package core_test

import (
	"fmt"
	"testing"

	"sideeffect/internal/core"
	"sideeffect/internal/workload"
)

// TestAllocPoliciesAgree: the allocator must never change the solution
// — arena and heap runs produce identical facts and GMOD/IMOD+/DMOD
// sets, with the heap run as the reference.
func TestAllocPoliciesAgree(t *testing.T) {
	for _, n := range []int{24, 96} {
		for seed := int64(0); seed < 4; seed++ {
			cfg := workload.DefaultConfig(n, 1000+seed)
			prog := workload.Random(cfg)
			for _, kind := range []core.Kind{core.Mod, core.Use} {
				t.Run(fmt.Sprintf("N=%d/seed=%d/%s", n, seed, kind), func(t *testing.T) {
					base := core.Analyze(prog, kind, core.Options{Prune: true, Heap: true})
					r := core.Analyze(prog, kind, core.Options{Prune: true})
					if len(r.GMOD) != len(base.GMOD) || len(r.DMOD) != len(base.DMOD) {
						t.Fatal("arena result shape differs from heap reference")
					}
					for i := range base.GMOD {
						if !r.GMOD[i].Equal(base.GMOD[i]) {
							t.Errorf("GMOD[%d] = %v, heap reference %v", i, r.GMOD[i], base.GMOD[i])
						}
						if !r.IMODPlus[i].Equal(base.IMODPlus[i]) {
							t.Errorf("IMODPlus[%d] differs from heap reference", i)
						}
						if !r.Facts.I[i].Equal(base.Facts.I[i]) || !r.Facts.Local[i].Equal(base.Facts.Local[i]) {
							t.Errorf("facts[%d] differ from heap reference", i)
						}
					}
					for i := range base.DMOD {
						if !r.DMOD[i].Equal(base.DMOD[i]) {
							t.Errorf("DMOD[%d] = %v, heap reference %v", i, r.DMOD[i], base.DMOD[i])
						}
					}
					if r.Arena == nil {
						t.Error("default result has no arena")
					}
					if base.Arena != nil {
						t.Error("heap result unexpectedly has an arena")
					}
				})
			}
		}
	}
}

// TestArenaResultsIndependent: sets carved from the same arena must
// not alias — mutating one GMOD row cannot disturb another.
func TestArenaResultsIndependent(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(40, 11))
	r := core.Analyze(prog, core.Mod, core.Options{Prune: true})
	if r.Arena == nil {
		t.Fatal("default allocator produced no arena")
	}
	before := make([]string, len(r.GMOD))
	for i, s := range r.GMOD {
		before[i] = s.String()
	}
	probe := r.Prog.NumVars() - 1
	r.GMOD[0].Add(probe)
	r.GMOD[0].Remove(probe)
	for i := 1; i < len(r.GMOD); i++ {
		if r.GMOD[i].String() != before[i] {
			t.Fatalf("GMOD[%d] changed when GMOD[0] was mutated", i)
		}
	}
}
