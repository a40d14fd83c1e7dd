package core

import (
	"sideeffect/internal/bitset"
	"sideeffect/internal/ir"
)

// ComputeIMODPlus evaluates equation (5) of the paper,
//
//	IMOD+(p) = IMOD(p) ∪ ∪_{e=(p,q)} b_e(RMOD(q)),
//
// where b_e is restricted to actual-to-formal bindings: for every call
// site in p, an actual variable bound to a formal in RMOD(callee) is
// added to IMOD+(p). With lexical nesting, a call site textually
// inside a procedure nested in p binds variables on behalf of that
// nested procedure; its contributions are folded upward exactly like
// the extended IMOD sets of Section 3.3:
//
//	IMOD+(p) ∪= IMOD+(q) ∖ LOCAL(q)   for q ∈ Nest(p).
//
// The result is indexed by procedure ID. The computation is one pass
// over the call sites plus one bottom-up pass over the nesting forest,
// linear in program size for bounded parameter lists.
func ComputeIMODPlus(facts *Facts, rmod *RMOD) []*bitset.Set {
	return computeIMODPlus(facts, rmod, heapAlloc(facts.Prog.NumVars()))
}

// computeIMODPlus is ComputeIMODPlus with the sets drawn from al.
func computeIMODPlus(facts *Facts, rmod *RMOD, al setAlloc) []*bitset.Set {
	prog := facts.Prog
	out := make([]*bitset.Set, prog.NumProcs())
	for _, p := range prog.Procs {
		out[p.ID] = al.resultClone(facts.I[p.ID])
	}
	for _, cs := range prog.Sites {
		for i, a := range cs.Args {
			if a.Mode != ir.FormalRef || a.Var == nil {
				continue
			}
			if rmod.Of(cs.Callee.Formals[i]) {
				out[cs.Caller.ID].Add(a.Var.ID)
			}
		}
	}
	// Fold nested procedures' IMOD+ into their lexical parents,
	// deepest level first.
	maxL := prog.MaxLevel()
	if maxL > 0 {
		buckets := make([][]*ir.Procedure, maxL+1)
		for _, p := range prog.Procs {
			buckets[p.Level] = append(buckets[p.Level], p)
		}
		for lvl := maxL; lvl > 0; lvl-- {
			for _, p := range buckets[lvl] {
				out[p.Parent.ID].UnionDiffWith(out[p.ID], facts.Local[p.ID])
			}
		}
	}
	return out
}
