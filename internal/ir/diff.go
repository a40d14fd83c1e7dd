package ir

import "sideeffect/internal/bitset"

// FactDelta is one new local fact discovered by AdditiveDelta: the
// procedure (by ID in the new program) that gained a direct effect on
// the variable (by ID in the new program).
type FactDelta struct {
	Proc, Var int
}

// AdditiveDelta compares two program models and reports whether new is
// an *additive* extension of old: structurally identical — the same
// variables, procedures, nesting, formals, array accesses, and call
// sites, in the same declaration order, so that every ID means the
// same entity in both programs — with local fact sets (IMOD/IUSE) that
// only grew, and only by scalar variables. Source positions are
// allowed to differ: inserting a statement shifts everything below it
// without changing what the analyses see.
//
// When ok is true, modAdds and useAdds list the new facts (IDs valid
// in both programs), and an analysis of old can be carried to new by
// one core.Update per problem, given that problem's list. When ok is
// false the programs differ in some way the incremental engine cannot
// express (a deleted fact, a new call site, a new variable, a changed
// subscript pattern, ...) and the caller must fall back to full
// reanalysis.
func AdditiveDelta(old, new *Program) (modAdds, useAdds []FactDelta, ok bool) {
	if old.Name != new.Name ||
		len(old.Vars) != len(new.Vars) ||
		len(old.Procs) != len(new.Procs) ||
		len(old.Sites) != len(new.Sites) ||
		procID(old.Main) != procID(new.Main) {
		return nil, nil, false
	}
	for i, ov := range old.Vars {
		nv := new.Vars[i]
		if ov.ID != nv.ID || ov.Name != nv.Name || ov.Kind != nv.Kind ||
			procID(ov.Owner) != procID(nv.Owner) || ov.Ordinal != nv.Ordinal ||
			!intsEqual(ov.Dims, nv.Dims) {
			return nil, nil, false
		}
	}
	for i, op := range old.Procs {
		np := new.Procs[i]
		if op.ID != np.ID || op.Name != np.Name || op.Level != np.Level ||
			op.IsMain != np.IsMain || procID(op.Parent) != procID(np.Parent) ||
			!varsEqual(op.Formals, np.Formals) || !varsEqual(op.Locals, np.Locals) ||
			!procsEqual(op.Nested, np.Nested) || !accessesEqual(op.Accesses, np.Accesses) ||
			len(op.Calls) != len(np.Calls) {
			return nil, nil, false
		}
		for j, oc := range op.Calls {
			if oc.ID != np.Calls[j].ID {
				return nil, nil, false
			}
		}
	}
	for i, oc := range old.Sites {
		nc := new.Sites[i]
		if oc.ID != nc.ID || procID(oc.Caller) != procID(nc.Caller) ||
			procID(oc.Callee) != procID(nc.Callee) || len(oc.Args) != len(nc.Args) {
			return nil, nil, false
		}
		for j := range oc.Args {
			oa, na := &oc.Args[j], &nc.Args[j]
			if oa.Mode != na.Mode || varID(oa.Var) != varID(na.Var) ||
				!subsEqual(oa.Subs, na.Subs) || !varIDsEqual(oa.Uses, na.Uses) {
				return nil, nil, false
			}
		}
	}
	// Loops are part of the structure: moving a call into or out of a
	// loop body changes the Section-6 questions (and so the lint layer's
	// loop verdicts) without touching any fact set, so it must force a
	// full reanalysis.
	if len(old.Loops) != len(new.Loops) {
		return nil, nil, false
	}
	for i, ol := range old.Loops {
		nl := new.Loops[i]
		if procID(ol.Proc) != procID(nl.Proc) || varID(ol.Index) != varID(nl.Index) ||
			len(ol.Sites) != len(nl.Sites) {
			return nil, nil, false
		}
		for j, oc := range ol.Sites {
			if oc.ID != nl.Sites[j].ID {
				return nil, nil, false
			}
		}
	}
	// Structure is isomorphic; the remaining question is whether the
	// facts only grew, and only by scalars (an array fact would come
	// with an Accesses change, caught above — this guards the model).
	for i, op := range old.Procs {
		np := new.Procs[i]
		var bad bool
		collect := func(o, n *bitset.Set, out *[]FactDelta) {
			// Most procedures are untouched by an edit: test them
			// without building a difference.
			if o.Equal(n) {
				return
			}
			if !o.SubsetOf(n) {
				bad = true // a fact was removed: not additive
				return
			}
			bitset.Difference(n, o).ForEach(func(id int) {
				if new.Vars[id].Rank() != 0 {
					bad = true
				}
				*out = append(*out, FactDelta{Proc: np.ID, Var: id})
			})
		}
		collect(op.IMOD, np.IMOD, &modAdds)
		collect(op.IUSE, np.IUSE, &useAdds)
		if bad {
			return nil, nil, false
		}
	}
	return modAdds, useAdds, true
}

func procID(p *Procedure) int {
	if p == nil {
		return -1
	}
	return p.ID
}

func varID(v *Variable) int {
	if v == nil {
		return -1
	}
	return v.ID
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func varsEqual(a, b []*Variable) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func varIDsEqual(a, b []*Variable) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if varID(a[i]) != varID(b[i]) {
			return false
		}
	}
	return true
}

func procsEqual(a, b []*Procedure) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func subsEqual(a, b []Sub) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Const != b[i].Const ||
			varID(a[i].Sym) != varID(b[i].Sym) {
			return false
		}
	}
	return true
}

func accessesEqual(a, b []ArrayAccess) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Var.ID != b[i].Var.ID || a[i].Mod != b[i].Mod ||
			!subsEqual(a[i].Subs, b[i].Subs) {
			return false
		}
	}
	return true
}
