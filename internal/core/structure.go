package core

import (
	"sync"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/graph"
	"sideeffect/internal/ir"
)

// Structure is the kind-independent skeleton of a program's analysis:
// the binding multi-graph with its strongly-connected components
// (Figure 1, step 1), the call multi-graph, and — for nested programs —
// the per-level subgraphs and scope-class variable sets of the Section
// 4 extension. The MOD and USE problems differ only in their local
// facts; the skeleton is identical, so a caller solving both (the
// top-level pipeline, batch drivers) builds it once with BuildStructure
// and passes it through Options.Structure, halving the
// graph-construction work per program. A Structure is read-only after
// construction and may be shared by concurrent Analyze calls.
type Structure struct {
	Prog *ir.Program
	Beta *binding.Beta
	CG   *callgraph.CallGraph
	// Levels[l] is the call graph of the level-l problem: the call
	// multi-graph with every edge invoking a procedure at nesting level
	// < l removed. Levels[0] aliases CG.G (no edge is dropped at level
	// 0); the slice has length MaxLevel()+1.
	Levels []*graph.Graph
	// ClassVars[l] is the set of variables of scope class l. Nil for
	// flat programs, whose single GMOD pass needs no class split.
	ClassVars []*bitset.Set

	// betaSCC partitions the binding graph into strongly-connected
	// components, which SolveRMOD's collapse step starts from, and
	// sccs[l] partitions the level-l subgraph for the condensed GMOD
	// solver. Each is computed on first use under its sync.Once: a MOD
	// + USE pair sharing one Structure decomposes each graph once, and
	// a Structure that serves only Update, which solves no RMOD from
	// scratch, never decomposes β.
	betaSCC  *graph.SCCInfo
	betaOnce sync.Once
	sccs     []*graph.SCCInfo
	sccsOnce []sync.Once
}

// BuildStructure computes the shared skeleton of prog's analysis.
func BuildStructure(prog *ir.Program) *Structure {
	st := &Structure{Prog: prog, Beta: binding.Build(prog)}
	st.CG = callgraph.Build(prog)
	st.fillLevels()
	return st
}

// structureForGMOD wraps a caller-supplied call graph for the public
// SolveGMODMultiLevel entry point; the binding side stays empty.
func structureForGMOD(cg *callgraph.CallGraph) *Structure {
	st := &Structure{Prog: cg.Prog, CG: cg}
	st.fillLevels()
	return st
}

// fillLevels derives the per-level subgraphs and scope classes from
// the call graph.
func (st *Structure) fillLevels() {
	prog := st.Prog
	dP := prog.MaxLevel()
	st.Levels = make([]*graph.Graph, dP+1)
	st.sccs = make([]*graph.SCCInfo, dP+1)
	st.sccsOnce = make([]sync.Once, dP+1)
	st.Levels[0] = st.CG.G
	if dP == 0 {
		return
	}
	for lvl := 1; lvl <= dP; lvl++ {
		var list []graph.Edge
		for _, cs := range prog.Sites {
			if cs.Callee.Level >= lvl {
				list = append(list, graph.Edge{From: cs.Caller.ID, To: cs.Callee.ID})
			}
		}
		st.Levels[lvl] = graph.FromEdgeList(prog.NumProcs(), list)
	}
	st.ClassVars = make([]*bitset.Set, dP+1)
	for i := range st.ClassVars {
		st.ClassVars[i] = bitset.New(prog.NumVars())
	}
	for _, v := range prog.Vars {
		if lvl := v.ScopeLevel(); lvl <= dP {
			st.ClassVars[lvl].Add(v.ID)
		}
		// Variables of class d_P+1 are locals of the deepest
		// procedures; no call chain can modify them on behalf of a
		// caller, and they are covered by the IMOD+ base.
	}
}

// betaComponents returns the SCC decomposition of the binding graph,
// computing it on first use; concurrent MOD and USE analyses may race
// only into the sync.Once.
func (st *Structure) betaComponents() *graph.SCCInfo {
	st.betaOnce.Do(func() { st.betaSCC = st.Beta.G.SCC() })
	return st.betaSCC
}

// levelSCC returns the SCC decomposition of the level-lvl subgraph,
// computing it on first use. The slots are allocated by fillLevels (at
// construction, before the Structure is shared), so concurrent MOD and
// USE analyses may race only into the sync.Once, which decomposes each
// level exactly once.
func (st *Structure) levelSCC(lvl int) *graph.SCCInfo {
	st.sccsOnce[lvl].Do(func() { st.sccs[lvl] = st.Levels[lvl].SCC() })
	return st.sccs[lvl]
}
