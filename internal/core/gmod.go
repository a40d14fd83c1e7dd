package core

import (
	"sideeffect/internal/bitset"
	"sideeffect/internal/graph"
)

// GMODStats counts the bit-vector steps performed by FindGMOD, the
// quantities of Theorem 2: the union at the paper's line 17 executes
// at most once per call-graph edge, and the union at line 22 at most
// once per node.
type GMODStats struct {
	// Visits is the number of procedures visited (≤ N_C per run).
	Visits int
	// EdgeUnions counts executions of line 17 (GMOD[p] ∪= GMOD[q] ∖
	// LOCAL[q]); NodeUnions counts executions of line 22.
	EdgeUnions, NodeUnions int
	// Components is the number of SCCs closed.
	Components int
	// CondensedRows is the number of full-width escape rows the
	// SCC-condensed solver materialized (chain roots); SharedRowHits is
	// the number of components that resolved to a pure alias of a
	// successor's row — zero private storage. Both stay zero on the
	// per-node (uncondensed) path.
	CondensedRows, SharedRowHits int
}

// BitVectorSteps returns the total bit-vector operations, the unit of
// Theorem 2's O(E_C + N_C) bound.
func (s GMODStats) BitVectorSteps() int { return s.EdgeUnions + s.NodeUnions + s.Visits }

// Accumulate folds o's counters into s; the multi-level driver and the
// observability layers sum per-level (or per-problem) stats with it.
func (s *GMODStats) Accumulate(o GMODStats) {
	s.Visits += o.Visits
	s.EdgeUnions += o.EdgeUnions
	s.NodeUnions += o.NodeUnions
	s.Components += o.Components
	s.CondensedRows += o.CondensedRows
	s.SharedRowHits += o.SharedRowHits
}

// gmodFrame is one explicit DFS frame: node and next-successor index.
type gmodFrame struct{ v, ei int }

// gmodState is the findgmod search state: the Tarjan index arrays and
// the explicit frame stack.
type gmodState struct {
	dfn, lowlink []int
	onStack      []bool
	stack        []int
	frames       []gmodFrame
	nextdfn      int
}

// FindGMOD is the paper's findgmod (Figure 2): a one-pass adaptation
// of Tarjan's strongly-connected-components algorithm that evaluates
// equation (4),
//
//	GMOD(p) = IMOD+(p) ∪ ∪_{e=(p,q)} ( GMOD(q) ∖ LOCAL(q) ),
//
// during the depth-first search. Each node's set is initialized to
// IMOD+ (line 8); returning across a tree edge or examining an edge to
// an already-closed component applies equation (4) (line 17); and when
// the root of a strongly-connected component is found, every member's
// set is augmented with the root's non-local variables (line 22),
// which is correct because all members of the component reach the same
// set of variables that outlive the component (the paper's Theorem 1).
//
// roots lists the depth-first start nodes (normally just main's ID);
// any procedure not reachable from the roots is searched afterwards so
// that every procedure receives a solution, matching the paper's
// assumption that unreachable procedures were eliminated while
// remaining total on un-pruned inputs.
//
// For programs whose procedures all sit at nesting level 0 (two-level
// languages like C or Fortran — equation (8)'s premise), the result is
// the exact least solution of equation (4). For nested programs use
// SolveGMODMultiLevel, which runs one pass per nesting level on the
// SCC-condensed storage layer; FindGMOD, run once per level on the same
// subgraphs and seeds, is the reference that layer is tested against.
//
// The search is iterative (explicit frame stack) so call chains of
// hundreds of thousands of procedures cannot overflow the goroutine
// stack; the structure otherwise mirrors Figure 2 line by line. Every
// returned set is a fresh clone of its IMOD+ seed, so the rows never
// alias the seeds.
func FindGMOD(g *graph.Graph, imodPlus []*bitset.Set, local []*bitset.Set, roots ...int) ([]*bitset.Set, GMODStats) {
	n := g.NumNodes()
	out := make([]*bitset.Set, n)
	st := &gmodState{
		dfn:     make([]int, n),
		lowlink: make([]int, n),
		onStack: make([]bool, n),
		stack:   make([]int, 0, n),
		frames:  make([]gmodFrame, 0, n),
		nextdfn: 1,
	}
	var stats GMODStats
	for _, r := range roots {
		st.search(g, imodPlus, local, out, r, &stats)
	}
	for v := 0; v < n; v++ {
		st.search(g, imodPlus, local, out, v, &stats)
	}
	return out, stats
}

func (st *gmodState) visit(v int, imodPlus, out []*bitset.Set, stats *GMODStats) {
	st.dfn[v] = st.nextdfn
	st.nextdfn++
	st.lowlink[v] = st.dfn[v]
	out[v] = imodPlus[v].Clone() // line 8: initialize to IMOD+
	st.stack = append(st.stack, v)
	st.onStack[v] = true
	stats.Visits++
	st.frames = append(st.frames, gmodFrame{v: v})
}

func (st *gmodState) search(g *graph.Graph, imodPlus, local, out []*bitset.Set, root int, stats *GMODStats) {
	if st.dfn[root] != 0 {
		return
	}
	st.visit(root, imodPlus, out, stats)
	for len(st.frames) > 0 {
		f := &st.frames[len(st.frames)-1]
		v := f.v
		advanced := false
		succs := g.Succs(v)
		for f.ei < len(succs) {
			e := succs[f.ei]
			f.ei++
			q := e.To
			if st.dfn[q] == 0 { // tree edge: descend
				st.visit(q, imodPlus, out, stats)
				advanced = true
				break
			}
			if st.dfn[q] < st.dfn[v] && st.onStack[q] {
				// Cross or back edge within the current component.
				if st.dfn[q] < st.lowlink[v] {
					st.lowlink[v] = st.dfn[q]
				}
			} else {
				// Edge to a closed component (or a forward edge):
				// apply equation (4) — line 17.
				out[v].UnionDiffWith(out[q], local[q])
				stats.EdgeUnions++
			}
		}
		if advanced {
			continue
		}
		// v is exhausted: close component if v is a root.
		if st.lowlink[v] == st.dfn[v] { // line 19
			stats.Components++
			for { // lines 20-24
				u := st.stack[len(st.stack)-1]
				st.stack = st.stack[:len(st.stack)-1]
				st.onStack[u] = false
				if u == v {
					break
				}
				out[u].UnionDiffWith(out[v], local[v]) // line 22
				stats.NodeUnions++
			}
		}
		st.frames = st.frames[:len(st.frames)-1]
		if len(st.frames) > 0 {
			p := &st.frames[len(st.frames)-1]
			if st.lowlink[v] < st.lowlink[p.v] {
				st.lowlink[p.v] = st.lowlink[v]
			}
			// Returning across the tree edge (p.v, v): v's dfn is
			// greater than p's, so Figure 2's stack test fails and
			// the else branch applies equation (4). When v belongs
			// to the same (still-open) component this is only a
			// partial application; the root fix-up completes it.
			out[p.v].UnionDiffWith(out[v], local[v])
			stats.EdgeUnions++
		}
	}
}
