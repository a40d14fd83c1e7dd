// Package alias computes flow-insensitive alias pairs introduced by
// reference-parameter passing and factors them into MOD/USE sets, the
// final step of the paper's pipeline (Section 5).
//
// The paper assumes "simple sets of alias pairs are available for each
// procedure"; this package provides them in the classical
// Banning/Cooper style. A pair ⟨x, y⟩ ∈ ALIAS(p) means x and y may
// name the same location on some entry to p. Pairs arise at call
// sites, from three sources, and propagate transitively down call
// chains:
//
//  1. a non-local variable v (global, or a visible local of an
//     enclosing scope) passed by reference to formal f: ⟨f, v⟩ holds
//     in the callee if v remains visible there;
//  2. the same variable passed by reference to two formals f_i, f_j of
//     one call: ⟨f_i, f_j⟩;
//  3. an actual x with an existing pair ⟨x, z⟩ ∈ ALIAS(caller) bound
//     to formal f: ⟨f, z⟩ if z is visible in the callee; and two
//     actuals x, y with ⟨x, y⟩ ∈ ALIAS(caller) bound to formals f_i,
//     f_j: ⟨f_i, f_j⟩.
//
// ALIAS(p) is kept once, as its sorted pairs. Compute solves it by
// difference propagation: each pair is handled once, when it first
// appears, against the by-reference actuals of p's call sites and the
// procedures nested in p; it terminates because the pair universe is
// finite. Section 5 notes any summary algorithm must spend time at
// least linear in the number of alias pairs; this one spends
// O(Σ_p |ALIAS(p)| · A_p), where A_p is the number of by-reference
// actuals at p's call sites, plus one set insertion per pair it
// derives. Factoring then costs one pass over ALIAS(caller) per call
// site.
package alias

import (
	"slices"

	"sideeffect/internal/arena"
	"sideeffect/internal/bitset"
	"sideeffect/internal/ir"
)

// Pair is an unordered alias pair of variable IDs with X < Y.
type Pair struct {
	X, Y int
}

// Analysis holds the alias solution for a program.
type Analysis struct {
	Prog *ir.Program
	// pairs[pid] is ALIAS(p), sorted by (X, Y).
	pairs [][]Pair
}

func pack(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Pairs returns ALIAS(p), sorted by (X, Y). The slice is the
// analysis's own storage: callers must not modify it.
func (a *Analysis) Pairs(p *ir.Procedure) []Pair { return a.pairs[p.ID] }

// NumPairs returns the total number of alias pairs across procedures.
func (a *Analysis) NumPairs() int {
	n := 0
	for _, ps := range a.pairs {
		n += len(ps)
	}
	return n
}

// For returns the solution for prog, a program with a.Prog's call-site
// bindings and nesting under the same IDs, as ir.AdditiveDelta
// certifies for an additive edit. ALIAS(p) depends on nothing else, so
// the copy shares a's pairs and only its Prog differs.
func (a *Analysis) For(prog *ir.Program) *Analysis {
	b := *a
	b.Prog = prog
	return &b
}

// ref is one by-reference actual of a call site: the variable v passed
// at argument position i of cs.
type ref struct {
	cs   *ir.CallSite
	v, i int32
}

// Compute runs the alias-pair analysis by difference propagation.
// Sources 1 and 2 need no pair, so they seed every call site once.
// Every other rule has exactly one pair as premise: a new pair ⟨x, y⟩
// of p feeds source 3 at each of p's call sites that passes x or y by
// reference, and the nesting rule at each procedure nested in p. So
// each pair is handled once, when it first appears, and the result is
// the least fixpoint of the rules. A pair is matched against a compact
// list of p's by-reference actuals, built when p's first pair is
// propagated, rather than against the call sites themselves: the list
// is one contiguous scan with the variable IDs inline.
func Compute(prog *ir.Program) *Analysis {
	// pairs[pid] is ALIAS(p) in order of discovery, each pair packed
	// as X<<32|Y with X < Y; done[pid] counts the ones already
	// propagated, so pairs[pid][done[pid]:] is p's share of the
	// worklist. seen[pid] holds the same pairs for membership; like
	// pairs it is allocated lazily, as most procedures of realistic
	// programs have no alias pairs at all.
	pairs := make([][]uint64, prog.NumProcs())
	done := make([]int, prog.NumProcs())
	seen := make([]map[uint64]struct{}, prog.NumProcs())
	var work []int // procedures with pairs not yet propagated
	add := func(pid, x, y int) {
		if x == y {
			return
		}
		key := pack(x, y)
		if _, ok := seen[pid][key]; ok {
			return
		}
		if seen[pid] == nil {
			seen[pid] = make(map[uint64]struct{}, 8)
		}
		seen[pid][key] = struct{}{}
		if done[pid] == len(pairs[pid]) {
			work = append(work, pid)
		}
		pairs[pid] = append(pairs[pid], key)
	}

	nrefs := 0
	for _, cs := range prog.Sites {
		q := cs.Callee
		for i, ai := range cs.Args {
			if ai.Mode != ir.FormalRef || ai.Var == nil {
				continue
			}
			nrefs++
			// Source 1: non-local actual still visible in callee.
			if ai.Var.Owner != q && q.Visible(ai.Var) {
				add(q.ID, q.Formals[i].ID, ai.Var.ID)
			}
			// Source 2: same variable twice.
			for j := i + 1; j < len(cs.Args); j++ {
				if aj := cs.Args[j]; aj.Mode == ir.FormalRef && aj.Var == ai.Var {
					add(q.ID, q.Formals[i].ID, q.Formals[j].ID)
				}
			}
		}
	}
	// refs[pid] holds p's by-reference actuals, all carved from one
	// slab; it stays nil until p's first pair.
	refs := make([][]ref, prog.NumProcs())
	slab := make([]ref, 0, nrefs)
	for len(work) > 0 {
		pid := work[len(work)-1]
		work = work[:len(work)-1]
		p := prog.Procs[pid]
		if refs[pid] == nil {
			start := len(slab)
			for _, cs := range p.Calls {
				for i, ai := range cs.Args {
					if ai.Mode == ir.FormalRef && ai.Var != nil {
						slab = append(slab, ref{cs: cs, v: int32(ai.Var.ID), i: int32(i)})
					}
				}
			}
			refs[pid] = slab[start:len(slab):len(slab)]
		}
		rs := refs[pid]
		for done[pid] < len(pairs[pid]) {
			key := pairs[pid][done[pid]]
			done[pid]++
			x, y := int(key>>32), int(key&0xffffffff)
			// Source 3 at every actual that is one name of the pair,
			// with z its partner.
			for _, r := range rs {
				var z int
				switch int(r.v) {
				case x:
					z = y
				case y:
					z = x
				default:
					continue
				}
				cs, i := r.cs, int(r.i)
				q := cs.Callee
				fi := q.Formals[i].ID
				// Source 3a: the partner aliases the formal.
				if q.Visible(prog.Vars[z]) {
					add(q.ID, fi, z)
				}
				// Source 3b: the partner is a later actual (an earlier
				// one found this position already).
				for j := i + 1; j < len(cs.Args); j++ {
					if aj := cs.Args[j]; aj.Mode == ir.FormalRef && aj.Var != nil && aj.Var.ID == z {
						add(q.ID, fi, q.Formals[j].ID)
					}
				}
			}
			// Lexical nesting: a pair holding on entry to p also holds
			// while any procedure nested in p runs (both names stay
			// visible), so pairs flow down the nesting tree as well as
			// along call edges.
			for _, child := range p.Nested {
				add(child.ID, x, y)
			}
		}
	}
	// Keep each ALIAS(p) sorted, once, all in one slab. The packed keys
	// sort as (X, Y) pairs do, so sort them and unpack after.
	n := 0
	for _, keys := range pairs {
		n += len(keys)
	}
	out := make([]Pair, n)
	a := &Analysis{Prog: prog, pairs: make([][]Pair, len(pairs))}
	for pid, keys := range pairs {
		if len(keys) == 0 {
			continue
		}
		slices.Sort(keys)
		ps := out[:len(keys):len(keys)]
		out = out[len(keys):]
		for i, pr := range keys {
			ps[i] = Pair{X: int(pr >> 32), Y: int(pr & 0xffffffff)}
		}
		a.pairs[pid] = ps
	}
	return a
}

// Factor applies step (2) of Section 5: MOD(s) = DMOD(s) extended
// with every variable aliased (in the enclosing procedure) to a member
// of DMOD(s). The input sets are not modified; the result is indexed
// by call-site ID like core.Result.DMOD and holds dmod's own row at
// every site where aliasing adds nothing (see FactorArena).
func (a *Analysis) Factor(dmod []*bitset.Set) []*bitset.Set {
	return a.FactorArena(dmod, nil, nil, nil)
}

// FactorArena is Factor with the copied rows carved from ar, so the
// factored sets share the lifetime of the Result whose arena backs
// them (core.Result.Arena). A nil arena means the heap; the arena must
// not be used from another goroutine while this runs.
//
// A site where ALIAS(caller) adds no name to DMOD(s) gets dmod[s]
// itself; every other site gets one copy, as wide as DMOD(s) or its
// highest added name. The cost is one pass over ALIAS(caller) per
// site, two membership tests per pair. The rows out share with dmod
// are read-only like every result row: neither a DMOD row nor a
// factored row is written once built.
//
// prevDMOD and prevSets are the DMOD rows and the factored rows of the
// analysis an additive edit starts from, or nil for a fresh analysis.
// A site whose DMOD row is prevDMOD's own pointer keeps prevSets' row,
// shared, and every other site is factored anew. That is sound because
// such an edit leaves ALIAS(p) as it was (see For) and core.Update
// writes a new DMOD row at every site whose row can change.
func (a *Analysis) FactorArena(dmod []*bitset.Set, ar *arena.Arena, prevDMOD, prevSets []*bitset.Set) []*bitset.Set {
	if len(prevDMOD) != len(dmod) || len(prevSets) != len(dmod) {
		prevDMOD = nil
	}
	out := make([]*bitset.Set, len(dmod))
	var names []int // the names one site adds, reused across sites
	for _, cs := range a.Prog.Sites {
		d := dmod[cs.ID]
		if prevDMOD != nil && d == prevDMOD[cs.ID] {
			out[cs.ID] = prevSets[cs.ID]
			continue
		}
		names = names[:0]
		top := -1
		for _, pr := range a.pairs[cs.Caller.ID] {
			hx, hy := d.Has(pr.X), d.Has(pr.Y)
			switch {
			case hx && !hy:
				names = append(names, pr.Y)
				top = max(top, pr.Y)
			case hy && !hx:
				names = append(names, pr.X)
				top = max(top, pr.X)
			}
		}
		if len(names) == 0 {
			out[cs.ID] = d
			continue
		}
		m := ar.Dense(max(d.Words()*64, top+1)).CopyFrom(d)
		for _, v := range names {
			m.Add(v)
		}
		out[cs.ID] = m
	}
	return out
}
