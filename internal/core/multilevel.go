package core

import (
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
// The pass over each level runs on the SCC-condensed storage layer
// (internal/core/condensed.go) whenever the level's scoping premise
// holds — always, for programs that pass ir.Program.Validate — and
// falls back to the per-node Figure-2 search otherwise. The solution
// is identical either way; only the storage and the work counters
// differ.
func SolveGMODMultiLevel(cg *callgraph.CallGraph, facts *Facts, imodPlus []*bitset.Set) ([]*bitset.Set, []GMODStats) {
	al := heapAlloc(cg.Prog.NumVars())
	levels, stats := solveLevels(structureForGMOD(cg), facts, imodPlus, al, false)
	return gmodRows(levels, imodPlus, al), stats
}

// escLevel is one level's solved escape layer: the condensed table
// when the pass ran condensed, or the per-node rows of the Figure-2
// fallback (DisableCondensation, or hand-built IR whose flat pass fails
// the scope premise).
type escLevel struct {
	esc     *escTable
	perNode []*bitset.Set
}

// into unions procedure pid's escape set at this level into dst.
func (l escLevel) into(pid int, dst *bitset.Set) {
	if l.esc != nil {
		l.esc.escInto(l.esc.scc.Comp[pid], dst)
	} else {
		dst.UnionWith(l.perNode[pid])
	}
}

// solveLevels is the multi-level findgmod driver: one pass per nesting
// level, each returned as an escape layer. Per-level escape sets are
// disjoint — a level-l pass escapes only scope-class-l variables — so
// a procedure's row is GMOD(p) = IMOD+(p) ∪ ∪_l Esc_l(p). Analyze
// materializes the rows from the layers (gmodRows); AnalyzeCondensed
// keeps them. The per-level subgraphs and scope classes come
// precomputed on st — they are kind-independent, so a MOD+USE pair
// shares one copy. noCondense forces the per-node solver (the
// differential baseline).
func solveLevels(st *Structure, facts *Facts, imodPlus []*bitset.Set, al setAlloc, noCondense bool) ([]escLevel, []GMODStats) {
	prog := st.Prog
	dP := prog.MaxLevel()
	levels := make([]escLevel, dP+1)
	stats := make([]GMODStats, dP+1)
	for lvl := range levels {
		// Problem lvl: st.Levels[lvl] has dropped the edges that invoke
		// a procedure declared at a level shallower than lvl; the seeds
		// restrict IMOD+ to the variables whose lifetime that problem
		// tracks (scope class lvl), which is also what makes the
		// condensed pass's premise structural: every callee on a
		// surviving edge declares its names at class ≥ lvl+1. A flat
		// program's single pass takes IMOD+ whole; there the premise
		// rests on IR validation, so the pass checks it (checkScope)
		// and a violation falls through to the per-node search.
		seeds := imodPlus
		if dP > 0 {
			seeds = make([]*bitset.Set, prog.NumProcs())
			for _, p := range prog.Procs {
				s := al.tempCopy(imodPlus[p.ID])
				s.IntersectWith(st.ClassVars[lvl])
				seeds[p.ID] = s
			}
		}
		ok := false
		if !noCondense {
			levels[lvl].esc, stats[lvl], ok = solveCondensed(st.Levels[lvl], st.levelSCC(lvl), seeds, facts.Local, prog.Vars, dP == 0)
		}
		if !ok {
			// FindGMOD's rows are fresh clones, so they outlive the
			// seeds released below.
			levels[lvl].perNode, stats[lvl] = FindGMOD(st.Levels[lvl], seeds, facts.Local, prog.Main.ID)
		}
		if dP > 0 {
			for _, s := range seeds {
				al.tempDone(s)
			}
		}
	}
	return levels, stats
}

// gmodRows materializes every procedure's GMOD row from the escape
// layers, the reconstruction of CondensedResult.GMODInto: the row
// starts as an allocator-owned copy of IMOD+ and each layer is unioned
// in.
func gmodRows(levels []escLevel, imodPlus []*bitset.Set, al setAlloc) []*bitset.Set {
	rows := make([]*bitset.Set, len(imodPlus))
	for pid := range rows {
		rows[pid] = al.resultClone(imodPlus[pid])
		for _, l := range levels {
			l.into(pid, rows[pid])
		}
	}
	return rows
}
