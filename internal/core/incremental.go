package core

import (
	"fmt"
	"slices"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/ir"
)

// Update carries a solution across an *additive* edit to the local
// facts — the editing scenario of the programming environment the
// paper was built for (one procedure is recompiled and its IMOD set
// grows; the environment wants updated summaries without re-running
// the whole-program analysis, cf. the Carroll–Ryder line of work the
// paper cites).
//
// prog is the edited program: structurally identical to cur.Prog —
// same IDs for every variable, procedure, and call site, as certified
// by ir.AdditiveDelta — with cur's local facts plus adds (facts of
// cur.Kind, IDs valid in both programs). beta and cg are prog's binding
// multi-graph and call graph; the MOD and USE updates of one edit share
// them, as a fresh analysis does. The solved fixpoints carry over: they
// are pure ID-indexed sets and remain valid under the isomorphism, and
// β-node numbering is preserved because nodes are enumerated in
// procedure/formal declaration order.
//
// Additions are cheap because every set in the framework is monotone
// in the local facts: a new fact can only add elements downstream.
// Update folds every fact of the edit in one pass — the extended facts
// up the nesting chain, one reverse reach on β from the newly true
// formals, the nested IMOD+ fold, one GMOD worklist that moves only
// the new bits backward over the call multi-graph, and a DMOD refresh
// of the sites whose callee changed — touching only procedures and
// sites whose solution changes.
// Deletions invalidate in the other direction and are handled by full
// recomputation (the facade's Session reanalyzes), which is what
// production environments of the era did as well.
//
// The result is built beside cur: it has its own row slices and RMOD
// solution but shares every row with cur until it writes one, and a
// written row is a heap copy. Only rows that grow are written, so a
// row of Facts.I, IMODPlus or GMOD is cur's own pointer exactly when
// the edit left it unchanged, and a DMOD row is new only at sites whose
// callee's GMOD row is. Update writes nothing it was given: not cur,
// not cur.Prog, not prog. Its one error is a fact whose variable is
// not visible in its procedure. Passing a program that is not
// ID-isomorphic to cur.Prog yields a corrupt result.
func Update(cur *Result, prog *ir.Program, beta *binding.Beta, cg *callgraph.CallGraph, adds []ir.FactDelta) (*Result, error) {
	for _, d := range adds {
		if p, v := prog.Procs[d.Proc], prog.Vars[d.Var]; !p.Visible(v) {
			return nil, fmt.Errorf("core: update: %s is not visible in %s", v, p.Name)
		}
	}
	facts, rmod, res := *cur.Facts, *cur.RMOD, *cur
	facts.Prog = prog
	facts.I = slices.Clone(cur.Facts.I)
	rmod.Beta = beta
	rmod.Node = slices.Clone(cur.RMOD.Node)
	res.Prog, res.Facts, res.Beta, res.CG, res.RMOD = prog, &facts, beta, cg, &rmod
	res.IMODPlus = slices.Clone(cur.IMODPlus)
	res.GMOD = slices.Clone(cur.GMOD)
	res.Arena = nil

	// own returns rows[i] ready to be written: a row that is still
	// cur's own, old[i], is first replaced by a heap copy. Callers
	// write only rows that grow, so an unchanged row stays cur's.
	own := func(rows, old []*bitset.Set, i int) *bitset.Set {
		if rows[i] == old[i] {
			rows[i] = rows[i].Clone()
		}
		return rows[i]
	}
	// plus[pid] collects the bits the edit adds to IMOD+(pid).
	plus := make([]*bitset.Set, prog.NumProcs())
	delta := func(pid int) *bitset.Set {
		if plus[pid] == nil {
			plus[pid] = bitset.NewSparse() // deltas are typically tiny
		}
		return plus[pid]
	}

	// The extended facts grow up the nesting chain until the owner of
	// the variable; a new fact on a by-reference formal seeds RMOD.
	var stack []int
	for _, d := range adds {
		for q := prog.Procs[d.Proc]; q != nil; q = q.Parent {
			if !facts.I[q.ID].Has(d.Var) {
				own(facts.I, cur.Facts.I, q.ID).Add(d.Var)
			}
			if facts.Local[q.ID].Has(d.Var) {
				break
			}
		}
		delta(d.Proc).Add(d.Var)
		if n := beta.NodeOf[d.Var]; n >= 0 && !rmod.Node[n] {
			rmod.Node[n] = true
			stack = append(stack, n)
		}
	}
	// Reverse reachability on β from the seeds over still-false nodes.
	// Each newly true formal adds its bound actuals to the IMOD+ of
	// the callers that bind it (equation 5).
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range beta.G.Preds(m) {
			if !rmod.Node[e.From] {
				rmod.Node[e.From] = true
				stack = append(stack, e.From)
			}
		}
		f := beta.Nodes[m]
		for _, e := range cg.G.Preds(f.Owner.ID) {
			if a := prog.Sites[e.ID].Args[f.Ordinal]; a.Mode == ir.FormalRef && a.Var != nil {
				delta(e.From).Add(a.Var.ID)
			}
		}
	}

	// Fold the deltas into the lexical parents' IMOD+, deepest level
	// first, as ComputeIMODPlus folds the sets themselves.
	if maxL := prog.MaxLevel(); maxL > 0 {
		buckets := make([][]*ir.Procedure, maxL+1)
		for _, q := range prog.Procs {
			buckets[q.Level] = append(buckets[q.Level], q)
		}
		for lvl := maxL; lvl > 0; lvl-- {
			for _, q := range buckets[lvl] {
				if plus[q.ID] != nil {
					delta(q.Parent.ID).UnionDiffWith(plus[q.ID], facts.Local[q.ID])
				}
			}
		}
	}

	// Backward propagation of new GMOD bits along call edges: a
	// worklist on equation (4) that moves only the bits each procedure
	// gained, since cur's sets are already a fixpoint. pending[q] holds
	// the bits GMOD(q) gained that its callers have not seen; q is on
	// the worklist exactly while it is non-nil.
	pending := make([]*bitset.Set, prog.NumProcs())
	var wl []int
	grow := func(pid, id int) {
		own(res.GMOD, cur.GMOD, pid).Add(id)
		if pending[pid] == nil {
			pending[pid] = bitset.NewSparse()
			wl = append(wl, pid)
		}
		pending[pid].Add(id)
	}
	for pid, d := range plus {
		if d == nil {
			continue
		}
		if !d.SubsetOf(res.IMODPlus[pid]) {
			own(res.IMODPlus, cur.IMODPlus, pid).UnionWith(d)
		}
		d.ForEach(func(id int) {
			if !res.GMOD[pid].Has(id) {
				grow(pid, id)
			}
		})
	}
	// Two filters apply per edge, matching the multi-level semantics:
	// the callee's LOCAL set, and the activation rule that a class-i
	// variable cannot survive an edge whose callee sits at a level
	// shallower than i (the call would create a fresh activation).
	for len(wl) > 0 {
		qid := wl[0]
		wl = wl[1:]
		d := pending[qid]
		pending[qid] = nil
		level := prog.Procs[qid].Level
		for _, e := range cg.G.Preds(qid) {
			d.ForEach(func(id int) {
				if !facts.Local[qid].Has(id) && !res.GMOD[e.From].Has(id) && prog.Vars[id].ScopeLevel() <= level {
					grow(e.From, id)
				}
			})
		}
	}
	// DMOD(s) reads only GMOD(q) and RMOD over q's formals, for s's
	// callee q. A formal that turns true in RMOD joins its owner's
	// GMOD (RMOD(q) is GMOD(q) on q's formals), so a site keeps cur's
	// row exactly when its callee's GMOD row is still cur's.
	res.DMOD = slices.Clone(cur.DMOD)
	for _, cs := range prog.Sites {
		if q := cs.Callee.ID; res.GMOD[q] != cur.GMOD[q] {
			res.DMOD[cs.ID] = dmodRow(cs, &rmod, res.GMOD, &facts, nil)
		}
	}
	return &res, nil
}
