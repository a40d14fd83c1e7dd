// Package arena provides a slab allocator for analysis-lifetime bit
// vectors. One core.Analyze produces O(N + S) result sets (GMOD,
// IMOD+, LOCAL, and per-site DMOD vectors); an Arena carves the word
// storage for all of a Result's sets out of a handful of large slabs:
//
//   - allocation is a bump-pointer slice, not a malloc;
//   - the word slabs are []uint64 — pointer-free memory the garbage
//     collector never scans, which removes the result vectors from
//     every GC mark phase;
//   - the whole analysis is freed as one object when the owning
//     Result becomes unreachable, instead of as tens of thousands of
//     individual sets.
//
// Each analysis carves from its own fresh Arena and nothing is
// recycled: the collector frees the slabs with the Result, so no
// caller needs to know when a result is dead. An Arena is NOT safe
// for concurrent use. Sets carved from an arena are ordinary
// bitset.Sets — if one grows past its block it falls back to the heap
// transparently — so arena ownership never changes set semantics, only
// where the initial words live.
package arena

import "sideeffect/internal/bitset"

// Slab growth: start small so toy programs pay a few hundred bytes,
// double per slab so large programs need O(log n) slabs, cap so a
// pathological request can't make later slabs enormous.
const (
	firstWordChunk = 1 << 10 // 8 KiB of set payload
	maxWordChunk   = 1 << 16 // 512 KiB
	firstHdrChunk  = 64
	maxHdrChunk    = 4096
	elemChunkSets  = 64 // sparse element buffers per elems slab
)

// Arena is a bump allocator for bitset storage. The zero value is
// ready to use.
type Arena struct {
	words []uint64     // tail of the current word slab
	elems []uint32     // tail of the current sparse-buffer slab
	hdrs  []bitset.Set // tail of the current header slab

	nextWords int // size of the next word slab
	nextHdrs  int
}

func (a *Arena) hdr() *bitset.Set {
	if len(a.hdrs) == 0 {
		if a.nextHdrs == 0 {
			a.nextHdrs = firstHdrChunk
		}
		a.hdrs = make([]bitset.Set, a.nextHdrs)
		if a.nextHdrs < maxHdrChunk {
			a.nextHdrs *= 2
		}
	}
	s := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	return s
}

func (a *Arena) wordBlock(w int) []uint64 {
	if w > len(a.words) {
		// The remainder of the current slab (if any) is abandoned.
		if a.nextWords == 0 {
			a.nextWords = firstWordChunk
		}
		a.words = make([]uint64, max(a.nextWords, w))
		if a.nextWords < maxWordChunk {
			a.nextWords *= 2
		}
	}
	blk := a.words[:w:w]
	a.words = a.words[w:]
	return blk
}

// Dense returns an empty dense set with capacity for elements in
// [0, nbits), its words carved from the arena.
func (a *Arena) Dense(nbits int) *bitset.Set {
	if nbits < 0 {
		nbits = 0
	}
	w := (nbits + 63) / 64
	s := a.hdr()
	*s = bitset.MakeDense(a.wordBlock(w))
	return s
}

// Sparse returns an empty sparse set whose element buffer (capacity
// bitset.SparseMax) is carved from the arena. It promotes to a
// heap-allocated dense vector if it outgrows the buffer.
func (a *Arena) Sparse() *bitset.Set {
	if len(a.elems) < bitset.SparseMax {
		a.elems = make([]uint32, elemChunkSets*bitset.SparseMax)
	}
	buf := a.elems[:bitset.SparseMax:bitset.SparseMax]
	a.elems = a.elems[bitset.SparseMax:]
	s := a.hdr()
	*s = bitset.MakeSparse(buf)
	return s
}

// Clone returns an arena-backed copy of t, preserving t's
// representation. Clone(nil) returns an empty sparse set. A nil
// receiver degrades to plain heap clones, so callers can thread an
// optional arena without branching.
func (a *Arena) Clone(t *bitset.Set) *bitset.Set {
	if a == nil {
		if t == nil {
			return bitset.NewSparse()
		}
		return t.Clone()
	}
	if t == nil {
		return a.Sparse()
	}
	var s *bitset.Set
	if t.IsSparse() && t.Len() <= bitset.SparseMax {
		s = a.Sparse()
	} else {
		s = a.Dense(t.Words() * 64)
	}
	return s.CopyFrom(t)
}
