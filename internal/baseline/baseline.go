// Package baseline implements the algorithms the paper improves upon,
// for two purposes:
//
//  1. independent oracles — declarative, obviously-correct (but slow)
//     formulations used by the test suite to cross-check the paper's
//     algorithms on randomly generated programs; and
//  2. performance comparators — iterative data-flow solvers in the
//     style the paper competes against (Banning's direct formulation
//     and the SIGPLAN'84 "swift" decomposition solved with standard
//     Kam–Ullman iteration), used by the benchmark harness to
//     reproduce the paper's claimed asymptotic and constant-factor
//     wins.
//
// It also holds the per-node reference for the SCC-condensed GMOD
// store: the paper's own Figure-2 search, run level by level
// (PerNodeGMOD).
//
// Substitution note (see DESIGN.md §4): the swift algorithm's Tarjan
// path-expression machinery is replaced by an iterative bit-vector
// solver over the same decomposition; it shares the property that the
// paper's comparison rests on — per-step cost proportional to the
// bit-vector length rather than O(1) boolean work.
package baseline

import (
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
)

// RMODReachability is the declarative oracle for the
// reference-formal-parameter problem: RMOD(n) holds iff some node m
// with a true seed is reachable from n in β (including n itself). It
// runs one DFS per node — O(Nβ·(Nβ+Eβ)) — with no shared state between
// queries, making it a trustworthy cross-check for core.SolveRMOD.
func RMODReachability(beta *binding.Beta, facts *core.Facts) []bool {
	n := beta.G.NumNodes()
	out := make([]bool, n)
	seed := make([]bool, n)
	for i, v := range beta.Nodes {
		seed[i] = facts.SeedOf(v)
	}
	for s := 0; s < n; s++ {
		if seed[s] {
			out[s] = true
			continue
		}
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 && !out[s] {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range beta.G.Succs(v) {
				if seed[e.To] {
					out[s] = true
					break
				}
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	return out
}

// GMODReachability is the declarative oracle for the global problem
// with nesting: for every scope class i (0 = program globals, i =
// variables declared at procedure level i-1), a class-i variable v is
// in GMOD(p) iff v ∈ IMOD+(p), or some procedure q with v ∈ IMOD+(q)
// is reachable from p by a non-empty call chain whose every invoked
// procedure sits at nesting level ≥ i. One DFS per (procedure, level)
// pair — O(d_P·N·(N+E)) — again with no clever sharing.
func GMODReachability(prog *ir.Program, imodPlus []*bitset.Set, facts *core.Facts) []*bitset.Set {
	n := prog.NumProcs()
	dP := prog.MaxLevel()
	out := make([]*bitset.Set, n)
	for i := range out {
		out[i] = imodPlus[i].Clone()
	}
	classVars := make([]*bitset.Set, dP+1)
	for i := range classVars {
		classVars[i] = bitset.New(prog.NumVars())
	}
	for _, v := range prog.Vars {
		if lvl := v.ScopeLevel(); lvl <= dP {
			classVars[lvl].Add(v.ID)
		}
	}
	for lvl := 0; lvl <= dP; lvl++ {
		for _, p := range prog.Procs {
			seen := make([]bool, n)
			stack := []int{}
			// Start from p's call sites (non-empty chains only).
			for _, cs := range p.Calls {
				if cs.Callee.Level >= lvl && !seen[cs.Callee.ID] {
					seen[cs.Callee.ID] = true
					stack = append(stack, cs.Callee.ID)
				}
			}
			acc := bitset.New(prog.NumVars())
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				acc.UnionWith(imodPlus[v])
				for _, cs := range prog.Procs[v].Calls {
					if cs.Callee.Level >= lvl && !seen[cs.Callee.ID] {
						seen[cs.Callee.ID] = true
						stack = append(stack, cs.Callee.ID)
					}
				}
			}
			acc.IntersectWith(classVars[lvl])
			out[p.ID].UnionWith(acc)
		}
	}
	return out
}

// PerNodeGMOD solves prog's kind problem with the paper's per-node
// findgmod (core.FindGMOD, Figure 2) and returns the GMOD rows and the
// DMOD rows of equation (2). It is the reference the SCC-condensed
// driver behind core.Analyze and core.AnalyzeCondensed is checked
// against. Facts, RMOD and IMOD+ come from the exported step helpers;
// the level-l search runs on core.Structure's level-l subgraph with
// IMOD+ restricted to scope class l, the problem family of
// core.SolveGMODMultiLevel, and GMOD(p) is IMOD+(p) joined with every
// level's row.
func PerNodeGMOD(prog *ir.Program, kind core.Kind) (gmod, dmod []*bitset.Set) {
	st := core.BuildStructure(prog)
	facts := core.ComputeFacts(prog, kind)
	rmod := core.SolveRMOD(st.Beta, facts)
	imodPlus := core.ComputeIMODPlus(facts, rmod)
	gmod = make([]*bitset.Set, prog.NumProcs())
	for pid := range gmod {
		gmod[pid] = imodPlus[pid].Clone()
	}
	for lvl, g := range st.Levels {
		seeds := imodPlus
		if st.ClassVars != nil {
			seeds = make([]*bitset.Set, len(imodPlus))
			for pid, s := range imodPlus {
				seeds[pid] = s.Clone()
				seeds[pid].IntersectWith(st.ClassVars[lvl])
			}
		}
		rows, _ := core.FindGMOD(g, seeds, facts.Local, prog.Main.ID)
		for pid, row := range rows {
			gmod[pid].UnionWith(row)
		}
	}
	return gmod, core.ComputeDMOD(prog, rmod, gmod, facts)
}

// Stats counts the work of the iterative solvers in the same currency
// the paper uses: bit-vector operations.
type Stats struct {
	// BitVecOps counts set operations whose cost is proportional to
	// the bit-vector length.
	BitVecOps int
	// Iterations counts worklist extractions.
	Iterations int
}

// BanningResult is the output of the direct iterative solution of
// equation (1).
type BanningResult struct {
	// GMOD is indexed by procedure ID; it is the least fixed point of
	//   GMOD(p) = I(p) ∪ ∪_{e=(p,q)} b_e(GMOD(q))
	// with the full projection b_e (locals of q removed, formals of q
	// renamed to the actuals bound at e).
	GMOD  []*bitset.Set
	Stats Stats
}

// BanningIterative solves equation (1) directly with a worklist, the
// classical formulation the paper's Section 2 starts from. It is both
// the second correctness oracle (its b_e handles reference parameters,
// globals, and nesting uniformly, with none of the paper's
// decomposition) and the slow comparator: convergence can take a
// number of passes proportional to the depth of binding chains, each
// pass costing bit-vector operations.
func BanningIterative(prog *ir.Program, facts *core.Facts) *BanningResult {
	res := &BanningResult{GMOD: make([]*bitset.Set, prog.NumProcs())}
	for _, p := range prog.Procs {
		res.GMOD[p.ID] = facts.I[p.ID].Clone()
	}
	// callersOf[q] lists call sites invoking q.
	callersOf := make([][]*ir.CallSite, prog.NumProcs())
	for _, cs := range prog.Sites {
		callersOf[cs.Callee.ID] = append(callersOf[cs.Callee.ID], cs)
	}
	inQueue := make([]bool, prog.NumProcs())
	queue := make([]int, 0, prog.NumProcs())
	for _, p := range prog.Procs {
		queue = append(queue, p.ID)
		inQueue[p.ID] = true
	}
	for len(queue) > 0 {
		qid := queue[0]
		queue = queue[1:]
		inQueue[qid] = false
		res.Stats.Iterations++
		for _, cs := range callersOf[qid] {
			p := cs.Caller
			changed := res.GMOD[p.ID].UnionDiffWith(res.GMOD[qid], facts.Local[qid])
			res.Stats.BitVecOps++
			for i, a := range cs.Args {
				if a.Mode != ir.FormalRef || a.Var == nil {
					continue
				}
				if res.GMOD[qid].Has(cs.Callee.Formals[i].ID) && !res.GMOD[p.ID].Has(a.Var.ID) {
					res.GMOD[p.ID].Add(a.Var.ID)
					changed = true
				}
			}
			if changed && !inQueue[p.ID] {
				inQueue[p.ID] = true
				queue = append(queue, p.ID)
			}
		}
	}
	return res
}
