package core

import (
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/ir"
)

// CondensedResult is the output of AnalyzeCondensed: the same solution
// as Analyze's Result, but with the GMOD and DMOD families left in
// their SCC-condensed representation instead of materialized rows.
// For a program of N procedures and v-word vectors, a Result carries
// O((N + sites)·v) words of solved sets; a CondensedResult carries the
// escape deltas — O(fact deltas + condensed rows) — and reconstructs
// any row on demand. At 100k procedures that is the difference between
// gigabytes and tens of megabytes.
//
// Rows are recovered through GMODInto/DMODInto (union into a
// caller-supplied set) and sized through GMODSize; the remaining
// fields (RMOD, IMODPlus, Facts) are the same per-procedure structures
// Analyze exposes, since they are linear in the program to begin with.
type CondensedResult struct {
	Prog *ir.Program
	Kind Kind

	Facts *Facts
	Beta  *binding.Beta
	CG    *callgraph.CallGraph

	// RMOD and IMODPlus are as on Result (Figure 1 and equation 5).
	RMOD     *RMOD
	IMODPlus []*bitset.Set

	// GMODStats holds the per-level work counters, as on Result.
	GMODStats []GMODStats

	// levels holds one escape table per findgmod pass (one for flat
	// programs, MaxLevel()+1 for nested ones). Per-level escape sets
	// are disjoint — a level-l pass escapes only scope-class-l
	// variables — so a row is the union of IMOD+ and every level's set.
	levels []*escTable
}

// AnalyzeCondensed runs the same stage sequence as Analyze but keeps
// the GMOD solution in condensed form; it is the giant-graph entry
// point. Every option (Prof, Structure and Faults) is honored.
// Rows follow arena.Row's rule on the heap, not an arena: the condensed
// store is itself the memory optimization, and carving its rows from an
// arena made the 100k-procedure sweep of EXPERIMENTS.md E20 a fifth
// slower. Callers needing cancellation use AnalyzeCtx, whose Result
// this matches row for row.
func AnalyzeCondensed(prog *ir.Program, kind Kind, opts Options) *CondensedResult {
	pl := newPipeline(nil, kind, opts)
	r, _ := pl.solve(prog, false)
	if pl.err != nil {
		// Unreachable without a fault injector, as for Analyze.
		panic(pl.abort())
	}
	return r
}

// GMODInto unions GMOD(pid) — equations (3)/(4), or GUSE for the Use
// problem — into dst and returns dst. The reconstruction is
// GMOD(p) = IMOD+(p) ∪ ∪_lvl Esc_lvl(comp(p)).
func (r *CondensedResult) GMODInto(pid int, dst *bitset.Set) *bitset.Set {
	dst.UnionWith(r.IMODPlus[pid])
	for _, t := range r.levels {
		t.escInto(t.scc.Comp[pid], dst)
	}
	return dst
}

// GMODSize returns |GMOD(pid)| without materializing the row: the
// level escape counts are disjoint by scope class, so only the IMOD+
// elements need membership probes against the chains.
func (r *CondensedResult) GMODSize(pid int) int {
	n := 0
	for _, t := range r.levels {
		n += int(t.count[t.scc.Comp[pid]])
	}
	r.IMODPlus[pid].ForEach(func(e int) {
		for _, t := range r.levels {
			if t.has(t.scc.Comp[pid], e) {
				return
			}
		}
		n++
	})
	return n
}

// DMODInto unions DMOD(siteID) — equation (2) — into dst and returns
// dst, evaluating the projection b_e directly on the escape tables:
// GMOD(q) ∖ LOCAL(q) distributes over the union, so each level flows
// through escIntoMasked and never materializes.
func (r *CondensedResult) DMODInto(siteID int, dst *bitset.Set) *bitset.Set {
	cs := r.Prog.Sites[siteID]
	q := cs.Callee
	local := r.Facts.Local[q.ID]
	dst.UnionDiffWith(r.IMODPlus[q.ID], local)
	for _, t := range r.levels {
		t.escIntoMasked(t.scc.Comp[q.ID], dst, local)
	}
	for i, a := range cs.Args {
		if r.Kind == Use {
			for _, u := range a.Uses {
				dst.Add(u.ID)
			}
		}
		if a.Mode == ir.FormalRef && a.Var != nil && r.RMOD.Of(q.Formals[i]) {
			dst.Add(a.Var.ID)
		}
	}
	return dst
}

// Stats returns the aggregate work counters across all levels, the
// condensed analogue of summing Result.GMODStats.
func (r *CondensedResult) Stats() GMODStats {
	var t GMODStats
	for _, s := range r.GMODStats {
		t.Accumulate(s)
	}
	return t
}
