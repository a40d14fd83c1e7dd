package section

import (
	"strings"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/prof"
)

// Result holds the regular-section side-effect solution for one
// problem kind.
type Result struct {
	Prog *ir.Program
	Kind core.Kind
	Beta *binding.Beta
	// Lattice is the section lattice the result was solved in.
	Lattice Lattice

	// Formal[n] is the section of β-node n's (array) formal affected
	// by an invocation of its owner — the rsd(fp) of the paper's
	// Section 6 equation. Scalar formals keep ⊤.
	Formal []RSD

	// Global[pid][vid] is the section of global array vid affected by
	// an invocation of procedure pid (the lattice analog of GMOD
	// restricted to global arrays). Missing entries mean ⊤.
	Global []map[int]RSD

	// Stats counts lattice work.
	Stats Stats

	// inv[pid] is the set of variables that may be modified during an
	// invocation of pid (the Mod problem's GMOD): a scalar is a usable
	// symbolic coordinate in pid only when it is NOT in this set. The
	// slice is shared (read-only) with the core Mod result, so queries
	// must never write through it; see invView.
	inv []*bitset.Set
}

// invView is the variance oracle the solver and the call-site queries
// consult: "may vid's value change during an invocation of pid?". The
// fixed field carries AtCallWithin's one-variable exception (a loop
// index held constant within an iteration) without mutating the shared
// inv sets, which keeps concurrent queries on results that share GMOD
// storage race-free.
type invView struct {
	sets  []*bitset.Set
	fixed int // variable ID treated as invariant regardless, or -1
}

func (iv invView) varies(pid, vid int) bool {
	return vid != iv.fixed && iv.sets[pid].Has(vid)
}

// Stats counts the meet and mapping operations performed — the cost
// unit of the paper's Section 6 complexity discussion (the bound is in
// meet operations and is independent of lattice depth).
type Stats struct {
	Meets      int
	MapApps    int // applications of an edge mapping g_e
	Iterations int
}

// lrsdOf computes the local regular section of each array variable
// directly accessed by p: the meet of the per-access descriptors. A
// subscript contributes a Const atom for constants and a Sym atom for
// a scalar variable that is invariant in p (not locally modified —
// the "arbitrary symbolic input parameters" of Figure 3); anything
// else widens to ⋆.
func lrsdOf(p *ir.Procedure, inv invView, kind core.Kind, lat Lattice, out map[int]RSD, st *Stats) {
	wantMod := kind == core.Mod
	for _, acc := range p.Accesses {
		if acc.Mod != wantMod {
			continue
		}
		dims := make([]Atom, len(acc.Subs))
		for i, s := range acc.Subs {
			switch s.Kind {
			case ir.SubConst:
				dims[i] = ConstAtom(s.Const)
			case ir.SubSym:
				if inv.varies(p.ID, s.Sym.ID) {
					dims[i] = StarAtom // may be modified during p: not invariant
				} else {
					dims[i] = SymAtom(s.Sym)
				}
			default:
				dims[i] = StarAtom
			}
		}
		cur, ok := out[acc.Var.ID]
		if !ok {
			cur = Unaccessed()
		}
		out[acc.Var.ID] = MeetIn(lat, cur, RSD{Dims: dims})
		st.Meets++
	}
}

// translateAtom maps an atom valid in the callee of cs to one valid in
// the caller: callee formals are replaced by the corresponding actual
// (a symbol if the actual is an invariant simple variable, a constant
// if it is a literal-shaped subscript, ⋆ otherwise); globals and
// enclosing-scope variables keep their names; anything local to the
// callee widens to ⋆.
func translateAtom(a Atom, cs *ir.CallSite, prog *ir.Program, inv invView) Atom {
	if a.Kind != Sym {
		return a
	}
	v := prog.Vars[a.V]
	if v.Owner == cs.Callee {
		if !v.IsFormal() {
			return StarAtom // callee local: meaningless at the call site
		}
		act := cs.Args[v.Ordinal]
		if act.Var != nil && act.Var.Rank() == 0 {
			if inv.varies(cs.Caller.ID, act.Var.ID) {
				return StarAtom // actual may vary in the caller
			}
			return SymAtom(act.Var)
		}
		return StarAtom
	}
	// Global or enclosing-scope variable: visible at the call site iff
	// the caller can see it; invariance in the caller still required.
	if !cs.Caller.Visible(v) || inv.varies(cs.Caller.ID, v.ID) {
		return StarAtom
	}
	return a
}

// mapThroughCall implements the edge mapping g_e of Section 6: given
// the section `inner` of the callee's formal at position arg of call
// site cs, produce the section of the *actual* array it corresponds
// to. Fixed subscript positions of the actual (e.g. the k of
// A[k, *]) become coordinates of the result; each ⋆ position consumes
// the next dimension of the inner section, translated into the
// caller's name space.
func mapThroughCall(cs *ir.CallSite, arg int, inner RSD, prog *ir.Program, inv invView, st *Stats) RSD {
	st.MapApps++
	if inner.None {
		return Unaccessed()
	}
	act := cs.Args[arg]
	if act.Var == nil {
		return Unaccessed()
	}
	rank := act.Var.Rank()
	dims := make([]Atom, rank)
	if act.Subs == nil {
		// Whole-array binding: ranks match; translate pointwise.
		for i := 0; i < rank; i++ {
			dims[i] = translateAtom(inner.Dims[i], cs, prog, inv)
		}
		return RSD{Dims: dims}
	}
	k := 0
	for i, s := range act.Subs {
		switch s.Kind {
		case ir.SubStar:
			dims[i] = translateAtom(inner.Dims[k], cs, prog, inv)
			k++
		case ir.SubConst:
			dims[i] = ConstAtom(s.Const)
		case ir.SubSym:
			if inv.varies(cs.Caller.ID, s.Sym.ID) {
				dims[i] = StarAtom
			} else {
				dims[i] = SymAtom(s.Sym)
			}
		default:
			dims[i] = StarAtom
		}
	}
	return RSD{Dims: dims}
}

// Analyze solves the regular-section side-effect problem.
//
// Phase 1 solves the formal-parameter subproblem on the binding
// multi-graph β with the data-flow system
//
//	rsd(fp1) = lrsd(fp1) ⊓ ⨅_{e=(fp1,fp2)∈Eβ} g_e(rsd(fp2))
//
// by monotone worklist iteration. Termination: each dimension of each
// node's descriptor can only descend ⊤ → atom → ⋆, so the per-node
// descent depth is rank+1 regardless of the symbol universe — the
// paper's observation that complexity does not depend on lattice
// depth. For divide-and-conquer recursion (a cycle whose g_p satisfies
// g_p(x) ⊓ x = x) the cycle stabilizes immediately.
//
// Phase 2 extends the summaries to global arrays, the lattice analog
// of equation (4) solved by worklist iteration over the call graph:
// every procedure's map from global arrays to sections is seeded with
// its local accesses plus the g_e-image of callee formal summaries
// whose actual is a global array, then propagated caller-ward
// unchanged (global names survive every return).
func Analyze(modRes *core.Result, kind core.Kind) *Result {
	return AnalyzeIn(modRes, kind, SimpleSections)
}

// AnalyzeIn is Analyze under an explicit section lattice (see
// bounded.go for the precision/cost trade-off).
func AnalyzeIn(modRes *core.Result, kind core.Kind, lat Lattice) *Result {
	return AnalyzeProf(modRes, kind, lat, nil)
}

// AnalyzeProf is AnalyzeIn with per-phase wall time accumulated in pf
// under "sections.<kind>.{local,formals,globals}". A nil profile is
// inert, so AnalyzeIn simply delegates here.
func AnalyzeProf(modRes *core.Result, kind core.Kind, lat Lattice, pf *prof.Profile) *Result {
	prog, beta := modRes.Prog, modRes.Beta
	if modRes.Kind != core.Mod {
		panic("section: Analyze requires the Mod-problem core result (its GMOD sets drive symbol invariance)")
	}
	res := &Result{
		Prog:    prog,
		Kind:    kind,
		Beta:    beta,
		Lattice: lat,
		Formal:  make([]RSD, len(beta.Nodes)),
		Global:  make([]map[int]RSD, prog.NumProcs()),
		inv:     modRes.GMOD,
	}
	inv := invView{sets: res.inv, fixed: -1}
	pfx := "sections." + strings.ToLower(kind.String()) + "."
	// Local sections per procedure.
	local := make([]map[int]RSD, prog.NumProcs())
	pf.Do(pfx+"local", func() {
		for _, p := range prog.Procs {
			local[p.ID] = map[int]RSD{}
			lrsdOf(p, inv, kind, lat, local[p.ID], &res.Stats)
		}
	})

	// --- Phase 1: formal arrays on β.
	pf.Do(pfx+"formals", func() { solveFormals(res, local, inv, lat) })

	// --- Phase 2: global arrays over the call graph.
	pf.Do(pfx+"globals", func() { solveGlobals(res, local, inv, lat) })
	return res
}

// solveFormals runs phase 1: the rsd(fp) fixed point on the binding
// multi-graph.
func solveFormals(res *Result, local []map[int]RSD, inv invView, lat Lattice) {
	prog, beta := res.Prog, res.Beta
	for n := range res.Formal {
		res.Formal[n] = Unaccessed()
		f := beta.Nodes[n]
		if f.Rank() == 0 {
			continue
		}
		if r, ok := local[f.Owner.ID][f.ID]; ok {
			res.Formal[n] = r
		}
	}
	// preds-by-edge for the worklist: when rsd(fp2) changes, every β
	// edge (fp1 → fp2) must be re-evaluated.
	inQ := make([]bool, len(beta.Nodes))
	var queue []int
	push := func(n int) {
		if !inQ[n] {
			inQ[n] = true
			queue = append(queue, n)
		}
	}
	for n, f := range beta.Nodes {
		if f.Rank() > 0 {
			push(n)
		}
	}
	for len(queue) > 0 {
		n2 := queue[0]
		queue = queue[1:]
		inQ[n2] = false
		res.Stats.Iterations++
		if beta.Nodes[n2].Rank() == 0 {
			continue
		}
		for _, e := range beta.G.Preds(n2) {
			n1 := e.From
			if beta.Nodes[n1].Rank() == 0 {
				continue
			}
			cs, arg := beta.EdgeSite[e.ID], beta.EdgeArg[e.ID]
			mapped := mapThroughCall(cs, arg, res.Formal[n2], prog, inv, &res.Stats)
			if mapped.None {
				continue
			}
			nv := MeetIn(lat, res.Formal[n1], mapped)
			res.Stats.Meets++
			if !nv.Equal(res.Formal[n1]) {
				res.Formal[n1] = nv
				push(n1)
			}
		}
	}
}

// solveGlobals runs phase 2: the lattice analog of equation (4) for
// global arrays, seeded from local accesses and mapped formal
// summaries.
func solveGlobals(res *Result, local []map[int]RSD, inv invView, lat Lattice) {
	prog, beta := res.Prog, res.Beta
	// Seeds: local accesses of globals, plus formal summaries mapped
	// through call sites whose actual is a global array (or a section
	// of one).
	for _, p := range prog.Procs {
		res.Global[p.ID] = map[int]RSD{}
		for vid, r := range local[p.ID] {
			if prog.Vars[vid].Kind == ir.Global {
				res.Global[p.ID][vid] = r
			}
		}
	}
	for _, cs := range prog.Sites {
		for i, a := range cs.Args {
			if a.Mode != ir.FormalRef || a.Var == nil || a.Var.Kind != ir.Global || a.Var.Rank() == 0 {
				continue
			}
			f := cs.Callee.Formals[i]
			n := beta.NodeOf[f.ID]
			if n < 0 || res.Formal[n].None {
				continue
			}
			mapped := mapThroughCall(cs, i, res.Formal[n], prog, inv, &res.Stats)
			meetInto(lat, res.Global[cs.Caller.ID], a.Var.ID, mapped, &res.Stats)
		}
	}
	// Propagate caller-ward to a fixed point (global arrays survive
	// every return, so no filtering is needed; nesting is irrelevant
	// for program globals).
	callersOf := make([][]*ir.CallSite, prog.NumProcs())
	for _, cs := range prog.Sites {
		callersOf[cs.Callee.ID] = append(callersOf[cs.Callee.ID], cs)
	}
	inQP := make([]bool, prog.NumProcs())
	var pq []int
	pushP := func(id int) {
		if !inQP[id] {
			inQP[id] = true
			pq = append(pq, id)
		}
	}
	for _, p := range prog.Procs {
		pushP(p.ID)
	}
	for len(pq) > 0 {
		qid := pq[0]
		pq = pq[1:]
		inQP[qid] = false
		res.Stats.Iterations++
		for _, cs := range callersOf[qid] {
			changed := false
			for vid, r := range res.Global[qid] {
				if meetInto(lat, res.Global[cs.Caller.ID], vid, r, &res.Stats) {
					changed = true
				}
			}
			if changed {
				pushP(cs.Caller.ID)
			}
		}
	}
}

// meetInto lowers m[vid] by r under the lattice, reporting change.
func meetInto(lat Lattice, m map[int]RSD, vid int, r RSD, st *Stats) bool {
	if r.None {
		return false
	}
	cur, ok := m[vid]
	if !ok {
		m[vid] = r
		return true
	}
	nv := MeetIn(lat, cur, r)
	st.Meets++
	if nv.Equal(cur) {
		return false
	}
	m[vid] = nv
	return true
}

// FormalOf returns the section summary for a formal variable (⊤ for
// non-array or unbound formals).
func (r *Result) FormalOf(v *ir.Variable) RSD {
	if n := r.Beta.NodeOf[v.ID]; n >= 0 {
		return r.Formal[n]
	}
	return Unaccessed()
}

// AtCall returns the sections of the caller-visible arrays affected by
// executing call site cs: the lattice analog of DMOD(s) restricted to
// arrays. Keys are variable IDs.
func (r *Result) AtCall(cs *ir.CallSite) map[int]RSD {
	return r.atCall(cs, invView{sets: r.inv, fixed: -1})
}

// AtCallWithin is AtCall as seen from inside one iteration of a loop
// over index: the loop variable is treated as fixed (invariant) when
// judging symbolic coordinates at this call site, even though the
// enclosing procedure modifies it between iterations. This is the view
// a parallelizer needs: within a single iteration the index has one
// value, and sections pinned to it from different iterations can be
// tested with DisjointAcrossIterations.
func (r *Result) AtCallWithin(cs *ir.CallSite, index *ir.Variable) map[int]RSD {
	return r.atCall(cs, invView{sets: r.inv, fixed: index.ID})
}

func (r *Result) atCall(cs *ir.CallSite, iv invView) map[int]RSD {
	out := map[int]RSD{}
	var st Stats
	// Global arrays affected anywhere below the callee.
	for vid, rsd := range r.Global[cs.Callee.ID] {
		meetInto(r.Lattice, out, vid, rsd, &st)
	}
	// Ref array actuals bound to affected formals.
	for i, a := range cs.Args {
		if a.Mode != ir.FormalRef || a.Var == nil || a.Var.Rank() == 0 {
			continue
		}
		f := cs.Callee.Formals[i]
		n := r.Beta.NodeOf[f.ID]
		if n < 0 || r.Formal[n].None {
			continue
		}
		meetInto(r.Lattice, out, a.Var.ID, mapThroughCall(cs, i, r.Formal[n], r.Prog, iv, &st), &st)
	}
	return out
}

// Symbols returns the section problem's symbol universe on prog: every
// variable used as a symbolic (ir.SubSym) subscript in an access or an
// actual, and, transitively, every scalar actual passed to a formal in
// the set. A symbolic coordinate only ever names one of them, so they
// are the only variables whose variance the solver and the call-site
// queries ask about: over two Mod results whose GMOD rows agree on
// them, a solution is the same.
func Symbols(prog *ir.Program) *bitset.Set {
	syms := bitset.New(len(prog.Vars))
	var work []*ir.Variable
	add := func(v *ir.Variable) {
		if !syms.Has(v.ID) {
			syms.Add(v.ID)
			work = append(work, v)
		}
	}
	subs := func(ss []ir.Sub) {
		for _, s := range ss {
			if s.Kind == ir.SubSym {
				add(s.Sym)
			}
		}
	}
	for _, p := range prog.Procs {
		for _, acc := range p.Accesses {
			subs(acc.Subs)
		}
	}
	for _, cs := range prog.Sites {
		for _, a := range cs.Args {
			subs(a.Subs)
		}
	}
	if len(work) == 0 {
		return syms
	}
	callers := make([][]*ir.CallSite, prog.NumProcs())
	for _, cs := range prog.Sites {
		callers[cs.Callee.ID] = append(callers[cs.Callee.ID], cs)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if !v.IsFormal() {
			continue
		}
		for _, cs := range callers[v.Owner.ID] {
			if a := cs.Args[v.Ordinal]; a.Var != nil && a.Var.Rank() == 0 {
				add(a.Var)
			}
		}
	}
	return syms
}

// Holds reports whether a section solution over prev's GMOD sets holds
// over next's, where next was carried from prev across an additive
// edit by core.Update, which replaces exactly the rows it grows: no
// replaced row gained a variable of syms (Symbols of the edited
// program, which an additive edit leaves as it was).
func Holds(syms *bitset.Set, prev, next *core.Result) bool {
	if syms.Empty() {
		return true
	}
	for pid, row := range next.GMOD {
		old := prev.GMOD[pid]
		if row == old {
			continue
		}
		gained := false
		syms.ForEach(func(vid int) {
			if !gained && row.Has(vid) && !old.Has(vid) {
				gained = true
			}
		})
		if gained {
			return false
		}
	}
	return true
}

// For returns the solution re-pointed at modRes, a Mod result over an
// additive edit of r.Prog over which the solution holds (Holds): the
// descriptors are shared, not copied, and the call-site queries consult
// modRes's GMOD sets.
func (r *Result) For(modRes *core.Result) *Result {
	n := *r
	n.Prog, n.Beta, n.inv = modRes.Prog, modRes.Beta, modRes.GMOD
	return &n
}
