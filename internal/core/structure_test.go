package core

import (
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

// TestStructureDecomposesBetaOnFirstUse: a Structure decomposes β on
// first use, once. One that serves only Update, as an additive edit's
// does, never decomposes it; a MOD + USE pair solved from scratch over
// one Structure shares one decomposition.
func TestStructureDecomposesBetaOnFirstUse(t *testing.T) {
	cfg := workload.DefaultConfig(64, 3)
	prog, edited := workload.Random(cfg), workload.Random(cfg)
	cur := Analyze(prog, Mod, Options{})
	var adds []ir.FactDelta
	for _, p := range edited.Procs {
		for _, g := range edited.Globals() {
			if g.Rank() == 0 && !p.IMOD.Has(g.ID) {
				p.IMOD.Add(g.ID)
				adds = append(adds, ir.FactDelta{Proc: p.ID, Var: g.ID})
				break
			}
		}
		if len(adds) > 0 {
			break
		}
	}
	if got, _, ok := ir.AdditiveDelta(prog, edited); !ok || len(got) != 1 {
		t.Fatalf("the edit is not one additive fact: ok %v, %d facts", ok, len(got))
	}

	st := BuildStructure(edited)
	if _, err := Update(cur, edited, st.Beta, st.CG, adds); err != nil {
		t.Fatal(err)
	}
	if st.betaSCC != nil {
		t.Error("a Structure that served only Update decomposed β")
	}

	Analyze(edited, Mod, Options{Structure: st})
	scc := st.betaSCC
	if scc == nil {
		t.Fatal("solving RMOD from scratch did not decompose β")
	}
	Analyze(edited, Use, Options{Structure: st})
	if st.betaSCC != scc {
		t.Error("the USE analysis decomposed β again")
	}
}
