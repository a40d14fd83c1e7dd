// Package core implements the paper's two linear-time algorithms and
// the decomposition that connects them:
//
//	RMOD  — side effects to by-reference formal parameters, solved on
//	        the binding multi-graph with strongly-connected components
//	        and one reverse-topological pass (Figure 1, Section 3);
//	IMOD+ — equation (5): local effects plus effects through ref
//	        parameters at immediate call sites;
//	GMOD  — side effects to variables that outlive the callee, solved
//	        by the one-pass adaptation of Tarjan's SCC algorithm
//	        (findgmod, Figure 2, Section 4), plus the multi-level
//	        variant for nested lexical scoping;
//	DMOD  — equation (2): per-call-site direct side effects.
//
// Every solver works for both the MOD and USE problems through the
// Kind parameter (the paper notes USE has an analogous solution).
// Alias factoring (Section 5) lives in the alias package; regular
// section analysis (Section 6) in the section package.
package core

import (
	"sideeffect/internal/bitset"
	"sideeffect/internal/ir"
)

// Kind selects which side-effect problem to solve.
type Kind int

// Problem kinds.
const (
	// Mod analyses "may be modified".
	Mod Kind = iota
	// Use analyses "may be used".
	Use
)

// String returns "MOD" or "USE".
func (k Kind) String() string {
	if k == Mod {
		return "MOD"
	}
	return "USE"
}

// Facts holds the per-procedure local facts the interprocedural
// solvers start from, with the lexical-nesting extension of Section
// 3.3 already applied:
//
//	I(p) = ∪_{s∈p} L(s)  ∪  ∪_{q∈Nest(p)} ( I(q) ∖ LOCAL(q) )
//
// so that a modification of a p-visible variable inside a procedure
// nested in p counts as an initial effect of p (the paper treats
// nested bodies as extensions of the enclosing body; the
// flow-insensitive problem cannot distinguish them).
type Facts struct {
	Prog *ir.Program
	Kind Kind
	// I[pid] is the extended IMOD (or IUSE) set of procedure pid.
	I []*bitset.Set
	// Local[pid] is LOCAL(p): p's declared locals and formals (the
	// names that vanish when p returns — equation (4)'s filter).
	Local []*bitset.Set
}

// ComputeFacts builds the extended local facts for the given problem.
// The computation is bottom-up over the nesting forest and linear in
// the size of the program.
func ComputeFacts(prog *ir.Program, kind Kind) *Facts {
	return computeFacts(prog, kind, heapAlloc(prog.NumVars()))
}

// computeFacts is ComputeFacts with the sets drawn from al.
func computeFacts(prog *ir.Program, kind Kind, al setAlloc) *Facts {
	n := prog.NumProcs()
	f := &Facts{
		Prog:  prog,
		Kind:  kind,
		I:     make([]*bitset.Set, n),
		Local: make([]*bitset.Set, n),
	}
	for _, p := range prog.Procs {
		seed := p.IMOD
		if kind == Use {
			seed = p.IUSE
		}
		f.I[p.ID] = al.resultClone(seed)
		f.Local[p.ID] = al.localSet(p)
	}
	// Deepest procedures first.
	order := make([]*ir.Procedure, len(prog.Procs))
	copy(order, prog.Procs)
	// Counting sort by level (levels are small).
	maxL := prog.MaxLevel()
	buckets := make([][]*ir.Procedure, maxL+1)
	for _, p := range order {
		buckets[p.Level] = append(buckets[p.Level], p)
	}
	for lvl := maxL; lvl > 0; lvl-- {
		for _, p := range buckets[lvl] {
			f.I[p.Parent.ID].UnionDiffWith(f.I[p.ID], f.Local[p.ID])
		}
	}
	return f
}

// SeedOf reports whether formal parameter v is in the extended local
// set of its owning procedure — the IMOD(fp_i^p) boolean of Section
// 3.2.
func (f *Facts) SeedOf(v *ir.Variable) bool {
	return f.I[v.Owner.ID].Has(v.ID)
}
