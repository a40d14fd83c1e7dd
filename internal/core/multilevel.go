package core

import (
	"sideeffect/internal/arena"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
)

// SolveGMODMultiLevel solves the global side-effect problem for
// languages with nested procedure declarations (Section 4's
// extension) by solving the family of problems 0..d_P, where problem i
// is defined on the call graph with every edge calling a procedure at
// nesting level < i removed.
//
// Rationale: a variable of scope class i (declared in a procedure at
// level i-1, or a program global for i = 0) survives only as long as
// its declaring activation; a call chain that invokes a procedure at a
// level shallower than i necessarily leaves the static scope of the
// variable and can only reach fresh activations of it. Static
// visibility guarantees the converse: any chain that stays at levels
// ≥ i and modifies the variable does so in the activation the chain
// started from.
//
// This is the "simple device" variant the paper describes first: it
// repeats findgmod once per level, O(d_P·(E_C + N_C)) bit-vector
// steps. (The paper further sketches a single-pass refinement with a
// vector of lowlink values reaching O(E_C + d_P·N_C); since d_P is a
// small constant in practice both are linear, and the repeated form is
// the one whose correctness follows directly from Theorem 1.)
//
// For d_P = 0 the result coincides with a single FindGMOD run.
//
// Each level's pass runs on the SCC-condensed storage layer
// (internal/core/condensed.go). FindGMOD, the per-node Figure-2 search,
// solves the same levels as the reference the condensed passes are
// tested against; the solution is identical, only the storage and the
// work counters differ.
func SolveGMODMultiLevel(cg *callgraph.CallGraph, facts *Facts, imodPlus []*bitset.Set) ([]*bitset.Set, []GMODStats) {
	levels, stats := solveLevels(structureForGMOD(cg), facts, imodPlus)
	return gmodRows(levels, imodPlus, nil, cg.Prog.NumVars()), stats
}

// solveLevels is the multi-level findgmod driver: one condensed pass
// per nesting level, each returned as an escape table. Per-level escape
// sets are disjoint — a level-l pass escapes only scope-class-l
// variables — so a procedure's row is GMOD(p) = IMOD+(p) ∪ ∪_l Esc_l(p).
// Analyze materializes the rows from the tables (gmodRows);
// AnalyzeCondensed keeps them. The per-level subgraphs and scope
// classes come precomputed on st — they are kind-independent, so a
// MOD+USE pair shares one copy.
func solveLevels(st *Structure, facts *Facts, imodPlus []*bitset.Set) ([]*escTable, []GMODStats) {
	prog := st.Prog
	dP := prog.MaxLevel()
	levels := make([]*escTable, dP+1)
	stats := make([]GMODStats, dP+1)
	for lvl := range levels {
		// Problem lvl: st.Levels[lvl] has dropped the edges that invoke
		// a procedure declared at a level shallower than lvl; the seeds
		// restrict IMOD+ to the variables whose lifetime that problem
		// tracks (scope class lvl), which is also what makes the
		// condensed pass's premise structural: every callee on a
		// surviving edge declares its names at class ≥ lvl+1. A flat
		// program's single pass takes IMOD+ whole; there the premise
		// rests on IR validation, so the pass checks it (checkScope).
		seeds := imodPlus
		if dP > 0 {
			seeds = make([]*bitset.Set, prog.NumProcs())
			for _, p := range prog.Procs {
				s := imodPlus[p.ID].Clone()
				s.IntersectWith(st.ClassVars[lvl])
				seeds[p.ID] = s
			}
		}
		levels[lvl], stats[lvl] = solveCondensed(st.Levels[lvl], st.levelSCC(lvl), seeds, facts.Local, prog, dP == 0)
	}
	return levels, stats
}

// gmodRows materializes every procedure's GMOD row from the escape
// tables, the reconstruction of CondensedResult.GMODInto: the row
// starts as a copy of IMOD+ carved from ar (nil: the heap) and each
// level's escape set is unioned in.
func gmodRows(levels []*escTable, imodPlus []*bitset.Set, ar *arena.Arena, nvars int) []*bitset.Set {
	rows := make([]*bitset.Set, len(imodPlus))
	for pid := range rows {
		rows[pid] = ar.Row(nvars, imodPlus[pid])
		for _, t := range levels {
			t.escInto(t.scc.Comp[pid], rows[pid])
		}
	}
	return rows
}
