package core

import (
	"sideeffect/internal/arena"
	"sideeffect/internal/bitset"
	"sideeffect/internal/ir"
)

// setAlloc is the per-analysis set allocator. The solved sets are
// identical under both allocators; only where their storage comes from
// differs, and each entry point fixes its allocator:
//
//   - Analyze draws every result-lifetime vector (facts, IMOD+, GMOD,
//     DMOD) from a per-analysis arena slab and serves level-lifetime
//     temporaries from the pooled scratch sets;
//   - AnalyzeCondensed, the exported step helpers, and Options.Heap
//     (the panic retry) use the heap: each set is its own allocation in
//     its own representation — sparse stays sparse until it grows —
//     and nothing is pooled.
type setAlloc struct {
	ar    *arena.Arena // nil for the heap allocator
	nvars int
}

// arenaAlloc returns the arena allocator over a fresh arena, which the
// collector frees with the Result that holds it.
func arenaAlloc(nvars int) setAlloc { return setAlloc{ar: new(arena.Arena), nvars: nvars} }

// heapAlloc returns the heap allocator.
func heapAlloc(nvars int) setAlloc { return setAlloc{nvars: nvars} }

// resultClone returns an analysis-lifetime copy of t. On the arena the
// copy is a universe-width row carved from the slab: the slab words are
// pointer-free (the GC never scans them), carving costs no per-set
// allocation, and full-width rows keep every later union on the
// word-parallel fast path. On the heap the copy preserves t's
// representation, so small sets stay sparse and promote only if the
// solution grows.
func (al setAlloc) resultClone(t *bitset.Set) *bitset.Set {
	if al.ar == nil {
		return t.Clone()
	}
	c := al.ar.Dense(al.nvars)
	c.UnionWith(t)
	return c
}

// resultDense returns an analysis-lifetime empty dense set spanning
// the universe, for accumulators that are expected to fill up (DMOD
// rows).
func (al setAlloc) resultDense() *bitset.Set {
	if al.ar != nil {
		return al.ar.Dense(al.nvars)
	}
	return bitset.New(al.nvars)
}

// localSet builds LOCAL(q) — q's declared locals and formals, the
// equation (4) filter. Mirrors ir.Program.LocalSet, which stays
// allocator-free for external callers. LOCAL rows filter the hottest
// unions in the solver (the ∖ LOCAL(q) of equation (4) at every
// call-graph edge and call site), so on the arena they are carved dense
// at universe width: the slab makes the width free, and a dense filter
// keeps those unions on the word-parallel path instead of per-element
// sparse masking.
func (al setAlloc) localSet(q *ir.Procedure) *bitset.Set {
	var s *bitset.Set
	if al.ar != nil {
		s = al.ar.Dense(al.nvars)
	} else {
		s = bitset.NewSparse()
	}
	for _, v := range q.Locals {
		s.Add(v.ID)
	}
	for _, v := range q.Formals {
		s.Add(v.ID)
	}
	return s
}

// tempCopy returns a level-lifetime copy of t; release with tempDone.
func (al setAlloc) tempCopy(t *bitset.Set) *bitset.Set {
	if al.ar != nil {
		return bitset.GetScratch(0).CopyFrom(t)
	}
	return t.Clone()
}

// tempDone releases a temporary obtained from tempCopy.
func (al setAlloc) tempDone(s *bitset.Set) {
	if al.ar != nil {
		bitset.PutScratch(s)
	}
}
