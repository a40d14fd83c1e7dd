package core_test

import (
	"fmt"
	"testing"

	"sideeffect/internal/alias"
	"sideeffect/internal/arena"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

type rowConfig struct {
	name string
	cfg  workload.Config
}

// rowConfigs returns flat and nested (MaxDepth 3) programs on both
// sides of arena.DenseRowBits: at N=24 and N=96 the universe is a few
// hundred variables, at N=400 it is well over a thousand.
func rowConfigs() []rowConfig {
	var out []rowConfig
	for _, n := range []int{24, 96, 400} {
		for seed := int64(0); seed < 4; seed++ {
			cfg := workload.DefaultConfig(n, 1000+seed)
			out = append(out, rowConfig{fmt.Sprintf("N=%d/seed=%d", n, seed), cfg})
			cfg.MaxDepth, cfg.NestFraction = 3, 0.6
			out = append(out, rowConfig{fmt.Sprintf("N=%d/depth=3/seed=%d", n, seed), cfg})
		}
	}
	return out
}

// forEachRowCase runs f as a subtest per configuration and problem kind
// on the Analyze result, and fails unless the configurations cover flat
// and nested programs on both sides of the dense-row threshold.
func forEachRowCase(t *testing.T, f func(t *testing.T, r *core.Result)) {
	covered := map[string]bool{}
	for _, c := range rowConfigs() {
		prog := workload.Random(c.cfg).Prune()
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			r := core.Analyze(prog, kind, core.Options{})
			covered[fmt.Sprintf("nested=%v dense=%v", r.Prog.MaxLevel() > 0, r.Prog.NumVars() <= arena.DenseRowBits)] = true
			t.Run(c.name+"/"+kind.String(), func(t *testing.T) { f(t, r) })
		}
	}
	if len(covered) != 4 {
		t.Errorf("row configurations cover only %v", covered)
	}
}

// TestAllocPoliciesAgree: the storage of a row must never change the
// solution. Every facts, IMOD+, GMOD and DMOD row of Analyze, carved
// from its arena, equals the row the exported step helpers compute on
// the heap.
func TestAllocPoliciesAgree(t *testing.T) {
	forEachRowCase(t, func(t *testing.T, r *core.Result) {
		if r.Arena == nil {
			t.Fatal("Analyze result has no arena")
		}
		prog := r.Prog
		facts := core.ComputeFacts(prog, r.Kind)
		rmod := core.SolveRMOD(binding.Build(prog), facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		gmod, _ := core.SolveGMODMultiLevel(callgraph.Build(prog), facts, imodPlus)
		dmod := core.ComputeDMOD(prog, rmod, gmod, facts)
		sameRows(t, "I", r.Facts.I, facts.I)
		sameRows(t, "LOCAL", r.Facts.Local, facts.Local)
		sameRows(t, "IMOD+", r.IMODPlus, imodPlus)
		sameRows(t, "GMOD", r.GMOD, gmod)
		sameRows(t, "DMOD", r.DMOD, dmod)
	})
}

func sameRows(t *testing.T, what string, got, want []*bitset.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, heap chain has %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s[%d] = %v, heap chain %v", what, i, got[i], want[i])
		}
	}
}

// TestResultRowRepresentation pins arena.Row's rule on Analyze's rows
// and the width rule of DMOD and factored rows. At or below
// DenseRowBits every row is dense at universe width. Above it a copied
// row keeps its source's representation, so every copied row (facts,
// LOCAL, IMOD+, GMOD) that holds at most SparseMax elements is still
// sparse; a DMOD row is dense and no wider than the callee's GMOD row
// or the highest actual the site adds; and an alias-factored row is
// the DMOD row itself exactly where ALIAS(caller) adds no name to it,
// and otherwise a distinct row that holds it. Every case above the
// threshold has factored rows of both kinds.
func TestResultRowRepresentation(t *testing.T) {
	forEachRowCase(t, func(t *testing.T, r *core.Result) {
		nvars := r.Prog.NumVars()
		width := (nvars + 63) / 64
		small := nvars <= arena.DenseRowBits
		for what, rows := range map[string][]*bitset.Set{
			"I": r.Facts.I, "LOCAL": r.Facts.Local, "IMOD+": r.IMODPlus, "GMOD": r.GMOD,
		} {
			for i, s := range rows {
				switch {
				case small && (s.IsSparse() || s.Words() != width):
					t.Errorf("%s[%d] over %d vars: sparse=%v words=%d, want dense at %d words",
						what, i, nvars, s.IsSparse(), s.Words(), width)
				case !small && s.Len() <= bitset.SparseMax && !s.IsSparse():
					t.Errorf("%s[%d] over %d vars: %d elements in a dense row", what, i, nvars, s.Len())
				}
			}
		}
		aliases := alias.Compute(r.Prog)
		factored := aliases.FactorArena(r.DMOD, r.Arena, nil, nil)
		if small {
			for what, rows := range map[string][]*bitset.Set{"DMOD": r.DMOD, "factored": factored} {
				for i, s := range rows {
					if s.IsSparse() || s.Words() != width {
						t.Errorf("%s[%d] over %d vars: sparse=%v words=%d, want dense at %d words",
							what, i, nvars, s.IsSparse(), s.Words(), width)
					}
				}
			}
			return
		}
		shared, copied := 0, 0
		for _, cs := range r.Prog.Sites {
			d, f := r.DMOD[cs.ID], factored[cs.ID]
			if bound := dmodWords(r, cs); d.IsSparse() || d.Words() > bound {
				t.Errorf("DMOD[%d] over %d vars: sparse=%v words=%d, want dense within %d words",
					cs.ID, nvars, d.IsSparse(), d.Words(), bound)
			}
			adds := false
			for _, pr := range aliases.Pairs(cs.Caller) {
				adds = adds || d.Has(pr.X) != d.Has(pr.Y)
			}
			switch {
			case f == d:
				shared++
				if adds {
					t.Errorf("factored[%d] is the DMOD row, but ALIAS(%s) adds to it", cs.ID, cs.Caller.Name)
				}
			case !adds:
				t.Errorf("factored[%d] is a copy, but ALIAS(%s) adds nothing to the DMOD row", cs.ID, cs.Caller.Name)
			case !d.SubsetOf(f) || f.Equal(d):
				t.Errorf("factored[%d] = %v, want a strict superset of DMOD %v", cs.ID, f, d)
			default:
				copied++
			}
		}
		if shared == 0 || copied == 0 {
			t.Errorf("%d factored rows are DMOD rows and %d are copies; want some of each", shared, copied)
		}
	})
}

// dmodWords is the width bound of DMOD(s), in words: the callee's GMOD
// row, or the highest variable the site adds on its own (a by-reference
// actual bound to an RMOD formal, and for Use every argument's uses).
func dmodWords(r *core.Result, cs *ir.CallSite) int {
	top := -1
	for i, a := range cs.Args {
		if r.Kind == core.Use {
			for _, u := range a.Uses {
				top = max(top, u.ID)
			}
		}
		if a.Mode == ir.FormalRef && a.Var != nil && r.RMOD.Of(cs.Callee.Formals[i]) {
			top = max(top, a.Var.ID)
		}
	}
	return max(r.GMOD[cs.Callee.ID].Words(), (top+64)/64)
}

// TestArenaResultsIndependent: sets carved from the same arena must
// not alias — mutating one GMOD row cannot disturb another, whether
// the rows are dense words or sparse blocks.
func TestArenaResultsIndependent(t *testing.T) {
	for _, n := range []int{40, 400} {
		prog := workload.Random(workload.DefaultConfig(n, 11)).Prune()
		r := core.Analyze(prog, core.Mod, core.Options{})
		if r.Arena == nil {
			t.Fatal("Analyze result has no arena")
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
				t.Fatalf("N=%d: GMOD[%d] changed when GMOD[0] was mutated", n, i)
			}
		}
	}
}
