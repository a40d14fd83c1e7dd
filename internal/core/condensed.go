package core

import (
	"fmt"

	"sideeffect/internal/bitset"
	"sideeffect/internal/graph"
	"sideeffect/internal/ir"
)

// This file implements the SCC-condensed findgmod solver: the storage
// and propagation layer is organized around the condensation of the
// call multi-graph instead of its nodes. The paper's Theorem 1 is the
// licence — every member of a strongly-connected component reaches the
// same set of variables that outlive the component — so one escape set
// per component suffices, and the per-node solution is recovered as
//
//	GMOD(u) = IMOD+(u) ∪ Esc(comp(u)).
//
// Esc obeys a recurrence over the condensation DAG (components are
// numbered in reverse topological order by Tarjan's algorithm, so a
// single increasing sweep sees every callee component before its
// callers):
//
//	Esc(C) = ∪_{w∈C} ( seed(w) ∖ LOCAL(w) )  ∪  ∪_{(w,q) leaving C} Esc(comp(q))
//
// The cross-edge term carries no LOCAL mask. That is sound exactly
// when no escape set can meet a callee's LOCAL filter, which holds for
// every pass the multi-level driver runs: a level-l pass seeds only
// scope-class-l variables while every callee on a level-l edge declares
// its names at class ≥ l+1, and a flat full-seed pass escapes only
// globals (guaranteed by ir.Program.Validate's visibility check; the
// solver still verifies it element by element while folding seeds, and
// panics naming the variable when it fails).
//
// Storage is the point. Esc(C) always contains Esc(C') for every
// successor C', so a component aliases its richest successor as a base
// and records only its own additions in a small sparse delta:
//
//	Esc(C) = delta(C) ∪ Esc(base(C))        (chain, capped depth)
//
// Total storage is O(Σ|delta|) — the fact deltas — plus one
// materialized dense row per chain that hits the depth cap or blows
// the per-component membership budget. On call graphs with a dominant
// component (any generated or real program of interesting size) almost
// every component resolves to "base plus a handful of bits", which is
// what GMODStats.SharedRowHits/CondensedRows make observable.

// maxChainDepth caps base-chain length. A membership probe walks the
// chain, so this bounds probe cost; crossing it materializes the base
// into a dense root row (CondensedRows) and restarts the chain there.
const maxChainDepth = 48

// escTable is the condensed escape-set store of one findgmod pass.
type escTable struct {
	scc *graph.SCCInfo
	// base[c] is the component whose escape set c extends; -1 for a
	// chain root.
	base []int32
	// delta[c] holds c's own additions over base[c] (nil = none).
	delta []*bitset.Set
	// row[c] is the materialized full escape set of a chain root
	// (nil unless base[c] == -1 and the root is non-empty).
	row []*bitset.Set
	// count[c] = |Esc(c)|; depth[c] = chain length to the root.
	count []int32
	depth []int32
}

// has reports whether e ∈ Esc(c) by walking c's base chain.
func (t *escTable) has(c int, e int) bool {
	for x := c; x >= 0; x = int(t.base[x]) {
		if d := t.delta[x]; d != nil && d.Has(e) {
			return true
		}
		if r := t.row[x]; r != nil {
			return r.Has(e)
		}
	}
	return false
}

// escInto unions Esc(c) into dst and returns the number of elements
// newly added.
func (t *escTable) escInto(c int, dst *bitset.Set) int {
	added := 0
	for x := c; x >= 0; x = int(t.base[x]) {
		if d := t.delta[x]; d != nil {
			added += dst.UnionInPlaceCount(d)
		}
		if r := t.row[x]; r != nil {
			added += dst.UnionInPlaceCount(r)
			break
		}
	}
	return added
}

// escIntoMasked unions Esc(c) ∖ mask into dst, reporting change.
func (t *escTable) escIntoMasked(c int, dst, mask *bitset.Set) bool {
	changed := false
	for x := c; x >= 0; x = int(t.base[x]) {
		if d := t.delta[x]; d != nil {
			changed = dst.UnionDiffWith(d, mask) || changed
		}
		if r := t.row[x]; r != nil {
			changed = dst.UnionDiffWith(r, mask) || changed
			break
		}
	}
	return changed
}

// materialize collapses c's chain into a dense root row so later
// probes and bases see depth 0.
func (t *escTable) materialize(c int, nvars int, stats *GMODStats) {
	dst := bitset.New(nvars)
	t.escInto(c, dst)
	t.row[c] = dst
	t.base[c] = -1
	t.delta[c] = nil
	t.depth[c] = 0
	stats.CondensedRows++
}

// addElem inserts e into Esc(c) if absent; the caller has already
// established e ∉ Esc(base chain).
func (t *escTable) addElem(c int, e int) {
	if t.row[c] != nil && t.base[c] < 0 && t.delta[c] == nil {
		t.row[c].Add(e)
		t.count[c]++
		return
	}
	if t.delta[c] == nil {
		t.delta[c] = bitset.NewSparse()
	}
	t.delta[c].Add(e)
	t.count[c]++
}

// solveCondensed runs one condensed findgmod pass over g. seeds and
// locals are indexed by node. With checkScope set (the flat full-seed
// pass) it verifies that every escaping seed element is a global — the
// premise that lets cross-edge flows skip their LOCAL masks — and
// panics naming the first one that is not: only IR that fails
// ir.Program.Validate's visibility check can get there.
func solveCondensed(g *graph.Graph, scc *graph.SCCInfo, seeds, locals []*bitset.Set, prog *ir.Program, checkScope bool) (*escTable, GMODStats) {
	nc := scc.NumComponents()
	nvars := prog.NumVars()
	t := &escTable{
		scc:   scc,
		base:  make([]int32, nc),
		delta: make([]*bitset.Set, nc),
		row:   make([]*bitset.Set, nc),
		count: make([]int32, nc),
		depth: make([]int32, nc),
	}
	// mark dedups cross-successor components and chainMark stamps base
	// chains for shared-suffix skipping, both with the current
	// component's number; succs holds one component's distinct
	// cross-successors.
	mark := make([]int32, nc)
	chainMark := make([]int32, nc)
	for i := range mark {
		mark[i], chainMark[i] = -1, -1
	}
	var succs []int32
	var stats GMODStats
	stats.Components = nc

	// A probe budget per component: once chain walks for membership
	// tests cost more than dense-row work would, materialize and finish
	// with word-parallel unions instead.
	budget := nvars/8 + 128

	for c := 0; c < nc; c++ {
		t.base[c] = -1
		members := scc.Members[c]

		// Distinct cross-successor components (deduped with mark).
		succs = succs[:0]
		for _, w := range members {
			for _, e := range g.Succs(w) {
				cq := scc.Comp[e.To]
				if cq == c || mark[cq] == int32(c) {
					continue
				}
				mark[cq] = int32(c)
				succs = append(succs, int32(cq))
				stats.EdgeUnions++
			}
		}

		// Base: the successor with the largest escape set.
		if len(succs) > 0 {
			b := int(succs[0])
			for _, s := range succs[1:] {
				if t.count[s] > t.count[b] {
					b = int(s)
				}
			}
			if t.depth[b]+1 > maxChainDepth {
				t.materialize(b, nvars, &stats)
			}
			t.base[c] = int32(b)
			t.depth[c] = t.depth[b] + 1
			t.count[c] = t.count[b]
		}

		// Stamp c's chain so shared suffixes of other successors'
		// chains are skipped instead of re-probed.
		for x := c; x >= 0; x = int(t.base[x]) {
			chainMark[x] = int32(c)
		}

		// Fold the remaining successors: walk each chain down to the
		// first stamped component (everything below is already in the
		// base) and probe only the unshared deltas.
		work := 0
		for _, s32 := range succs {
			s := int(s32)
			if s == int(t.base[c]) || t.row[c] != nil {
				continue
			}
			for x := s; x >= 0 && chainMark[x] != int32(c); x = int(t.base[x]) {
				chainMark[x] = int32(c)
				probe := func(e int) {
					if work++; !t.has(c, e) {
						t.addElem(c, e)
					}
				}
				if d := t.delta[x]; d != nil {
					d.ForEach(probe)
				}
				if r := t.row[x]; r != nil {
					r.ForEach(probe)
				}
				if work > budget {
					break
				}
			}
			if work > budget {
				// Chain probing is losing to dense arithmetic:
				// materialize c and absorb the rest word-parallel.
				t.materialize(c, nvars, &stats)
				row := t.row[c]
				for _, rest := range succs {
					if int(rest) != c {
						t.count[c] += int32(t.escInto(int(rest), row))
					}
				}
				break
			}
		}

		// Member seeds: seed(w) ∖ LOCAL(w) joins the escape set. For
		// the flat pass this is also where the scope premise is
		// checked — an escaping non-global breaks the mask-free
		// cross-edge argument.
		for _, w := range members {
			stats.Visits++
			stats.NodeUnions++
			seed, local := seeds[w], locals[w]
			if seed == nil {
				continue
			}
			seed.ForEach(func(e int) {
				if local != nil && local.Has(e) {
					return
				}
				if checkScope && !prog.Vars[e].IsGlobal() {
					panic(fmt.Sprintf("core: %s in IMOD+(%s) is neither global nor local to it; the flat GMOD pass needs IR that passes ir.Program.Validate",
						prog.Vars[e], prog.Procs[w].Name))
				}
				if !t.has(c, e) {
					t.addElem(c, e)
				}
			})
		}

		if t.base[c] >= 0 && (t.delta[c] == nil || t.delta[c].Empty()) {
			stats.SharedRowHits++
		}
	}
	return t, stats
}
