package core

import (
	"fmt"
	"slices"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/ir"
)

// Incremental maintains a Result under *additive* edits to the local
// facts — the editing scenario of the programming environment the
// paper was built for (one procedure is recompiled and its IMOD set
// grows; the environment wants updated summaries without re-running
// the whole-program analysis, cf. the Carroll–Ryder line of work the
// paper cites).
//
// Additions are cheap because every set in the framework is monotone
// in the local facts: a new fact can only add elements downstream. The
// updater propagates exactly the new bits backward over the call
// multi-graph (and the binding multi-graph for formals), touching only
// procedures whose solution actually changes. Deletions invalidate in
// the other direction and are handled by full recomputation (the
// facade's Session reanalyzes), which is what production environments
// of the era did as well.
//
// An updater made by NewIncremental writes its result in place. One
// made by Rebase works on a copy that shares every row with the result
// it was rebased from, and copies a row of Facts.I, IMODPlus or GMOD
// the first time it writes it, so that result is never written.
type Incremental struct {
	res *Result
	// callersOf[q] lists the call sites invoking q.
	callersOf [][]*ir.CallSite
	// copied holds the rows a rebased updater has copied; every other
	// row is still shared with the result it was rebased from. It is
	// nil for an updater that owns all its rows.
	copied map[*bitset.Set]bool
}

// NewIncremental wraps an existing analysis result for incremental
// maintenance. The result must have been produced by Analyze (it needs
// Facts, Beta, RMOD, IMODPlus, GMOD, and DMOD populated) and is
// updated in place.
func NewIncremental(res *Result) *Incremental {
	inc := &Incremental{
		res:       res,
		callersOf: make([][]*ir.CallSite, res.Prog.NumProcs()),
	}
	for _, cs := range res.Prog.Sites {
		inc.callersOf[cs.Callee.ID] = append(inc.callersOf[cs.Callee.ID], cs)
	}
	return inc
}

// row returns rows[i] ready to be written: a row still shared with the
// result this updater was rebased from is first replaced by a heap
// copy.
func (inc *Incremental) row(rows []*bitset.Set, i int) *bitset.Set {
	if inc.copied != nil && !inc.copied[rows[i]] {
		rows[i] = rows[i].Clone()
		inc.copied[rows[i]] = true
	}
	return rows[i]
}

// Result returns the maintained result.
func (inc *Incremental) Result() *Result { return inc.res }

// AddLocalEffect records that procedure p now directly modifies (for a
// Mod result) or uses (for a Use result) variable v, and updates every
// affected set. It returns the procedures whose GMOD sets changed.
//
// v must be visible in p. Cost is proportional to the part of the
// program whose solution changes (plus the RMOD closure when v is a
// by-reference formal).
func (inc *Incremental) AddLocalEffect(p *ir.Procedure, v *ir.Variable) ([]*ir.Procedure, error) {
	res := inc.res
	prog := res.Prog
	if !p.Visible(v) {
		return nil, fmt.Errorf("core: incremental: %s is not visible in %s", v, p.Name)
	}
	// Update the stored raw fact on the procedure (so a later full
	// re-analysis agrees) and the extended facts up the nesting chain.
	if res.Kind == Mod {
		p.IMOD.Add(v.ID)
	} else {
		p.IUSE.Add(v.ID)
	}
	for q := p; q != nil; q = q.Parent {
		inc.row(res.Facts.I, q.ID).Add(v.ID)
		if q.Parent == nil || res.Facts.Local[q.ID].Has(v.ID) {
			break
		}
	}

	// If v is a by-reference formal that was not previously affected,
	// the RMOD solution may grow: every β node that reaches v's node
	// becomes true, and each newly-true formal adds its bound actuals
	// to the callers' IMOD+.
	newPlus := make([]*bitset.Set, prog.NumProcs()) // deltas to IMOD+
	delta := func(pid int) *bitset.Set {
		if newPlus[pid] == nil {
			newPlus[pid] = bitset.NewSparse() // deltas are typically tiny
		}
		return newPlus[pid]
	}
	delta(p.ID).Add(v.ID)

	if n := res.Beta.NodeOf[v.ID]; n >= 0 && !res.RMOD.Node[n] {
		// Reverse reachability on β from n over still-false nodes.
		stack := []int{n}
		res.RMOD.Node[n] = true
		var turned []int
		turned = append(turned, n)
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range res.Beta.G.Preds(m) {
				if !res.RMOD.Node[e.From] {
					res.RMOD.Node[e.From] = true
					turned = append(turned, e.From)
					stack = append(stack, e.From)
				}
			}
		}
		// Newly-true formals: their bound actuals join the callers'
		// IMOD+ deltas (equation 5).
		turnedSet := make(map[int]bool, len(turned))
		for _, m := range turned {
			turnedSet[m] = true
		}
		for _, cs := range prog.Sites {
			for i, a := range cs.Args {
				if a.Mode != ir.FormalRef || a.Var == nil {
					continue
				}
				fn := res.Beta.NodeOf[cs.Callee.Formals[i].ID]
				if fn >= 0 && turnedSet[fn] {
					delta(cs.Caller.ID).Add(a.Var.ID)
				}
			}
		}
	}

	// Fold deltas into IMOD+ (with the nested fold) and then propagate
	// through GMOD with a worklist that moves only the new bits.
	maxL := prog.MaxLevel()
	if maxL > 0 {
		buckets := make([][]*ir.Procedure, maxL+1)
		for _, q := range prog.Procs {
			buckets[q.Level] = append(buckets[q.Level], q)
		}
		for lvl := maxL; lvl > 0; lvl-- {
			for _, q := range buckets[lvl] {
				if newPlus[q.ID] == nil {
					continue
				}
				delta(q.Parent.ID).UnionDiffWith(newPlus[q.ID], res.Facts.Local[q.ID])
			}
		}
	}

	changedSet := map[int]bool{}
	queue := []int{}
	for pid, d := range newPlus {
		if d == nil || d.Empty() {
			continue
		}
		inc.row(res.IMODPlus, pid).UnionWith(d)
		if inc.row(res.GMOD, pid).UnionInPlaceCount(d) > 0 {
			changedSet[pid] = true
			queue = append(queue, pid)
		}
	}
	// Backward propagation of new GMOD bits along call edges: a
	// worklist on equation (4) seeded with only the changed
	// procedures. Two filters apply per edge, matching the multi-level
	// semantics: the callee's LOCAL set, and the activation rule that
	// a class-i variable cannot survive an edge whose callee sits at a
	// level shallower than i (the call would create a fresh
	// activation).
	inQ := make([]bool, prog.NumProcs())
	add := new(bitset.Set) // reused by every edge below
	wl := append([]int(nil), queue...)
	for _, pid := range wl {
		inQ[pid] = true
	}
	classOK := func(v *ir.Variable, calleeLevel int) bool {
		return v.ScopeLevel() <= calleeLevel
	}
	for len(wl) > 0 {
		qid := wl[0]
		wl = wl[1:]
		inQ[qid] = false
		for _, cs := range inc.callersOf[qid] {
			pid := cs.Caller.ID
			// new = GMOD(q) ∖ LOCAL(q), class-filtered, minus what the
			// caller already has. This loop runs once per affected call
			// edge, so it reuses one temporary instead of allocating.
			add.CopyFrom(res.GMOD[qid])
			add.DifferenceWith(res.Facts.Local[qid])
			add.DifferenceWith(res.GMOD[pid])
			if add.Empty() {
				continue
			}
			changed := false
			add.ForEach(func(id int) {
				if classOK(prog.Vars[id], cs.Callee.Level) {
					inc.row(res.GMOD, pid).Add(id)
					changed = true
				}
			})
			if changed {
				changedSet[pid] = true
				if !inQ[pid] {
					inQ[pid] = true
					wl = append(wl, pid)
				}
			}
		}
	}
	// Refresh DMOD. Recomputing one row is a single union plus arity
	// work, and RMOD growth can affect sites of unchanged callees, so
	// refresh every row (still linear; a production environment would
	// index sites by formal to narrow this further).
	res.DMOD = ComputeDMOD(prog, res.RMOD, res.GMOD, res.Facts)

	out := make([]*ir.Procedure, 0, len(changedSet))
	for pid := range changedSet {
		out = append(out, prog.Procs[pid])
	}
	return out, nil
}

// Rebase returns an updater for prog, a program model that is
// structurally identical to the current one — same IDs for every
// variable, procedure, and call site, as certified by ir.AdditiveDelta
// — but may carry different source positions and additional local
// facts. beta and cg are prog's binding multi-graph and call graph;
// the MOD and USE updaters of one edit share them, as a fresh analysis
// does.
//
// The new updater's result is a copy of the current one. The solved
// fixpoints (RMOD, IMOD+, GMOD, DMOD) carry over: they are pure
// ID-indexed sets and remain valid under the isomorphism, and β-node
// numbering is preserved because nodes are enumerated in
// procedure/formal declaration order. The copy has its own row slices
// and RMOD solution, but shares every row with the current result
// until AddLocalEffect writes it; rows it copies come from the heap.
// The current result is never written, so it stays valid whatever
// happens to the new updater.
//
// Rebase does not apply the new facts; call AddLocalEffect on the new
// updater for each delta afterwards. Passing a program that is not
// ID-isomorphic to the current one yields a corrupt result.
func (inc *Incremental) Rebase(prog *ir.Program, beta *binding.Beta, cg *callgraph.CallGraph) *Incremental {
	old := inc.res
	facts, rmod, res := *old.Facts, *old.RMOD, *old
	facts.Prog = prog
	facts.I = slices.Clone(old.Facts.I)
	rmod.Beta = beta
	rmod.Node = slices.Clone(old.RMOD.Node)
	res.Prog, res.Facts, res.Beta, res.CG, res.RMOD = prog, &facts, beta, cg, &rmod
	res.IMODPlus = slices.Clone(old.IMODPlus)
	res.GMOD = slices.Clone(old.GMOD)
	res.Arena = nil
	next := NewIncremental(&res)
	next.copied = map[*bitset.Set]bool{}
	return next
}
