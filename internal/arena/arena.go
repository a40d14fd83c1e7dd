// Package arena provides a slab allocator for analysis-lifetime bit
// vectors and the one rule for how a result row is stored. One
// core.Analyze produces O(N + S) result sets (GMOD, IMOD+, LOCAL, and
// per-site DMOD vectors); an Arena carves the storage for all of a
// Result's sets out of a handful of large slabs:
//
//   - allocation is a bump-pointer slice, not a malloc;
//   - the word and element slabs are pointer-free memory the garbage
//     collector never scans, and the set headers share a few large
//     slabs, so each GC cycle marks a handful of slabs per result
//     instead of one object per set;
//   - the whole analysis is freed as one object when the owning
//     Result becomes unreachable.
//
// Each analysis carves from its own fresh Arena and nothing is
// recycled: the collector frees the slabs with the Result, so no
// caller needs to know when a result is dead. An Arena is NOT safe
// for concurrent use. Sets carved from an arena are ordinary
// bitset.Sets — if one grows past its block it falls back to the heap
// transparently — so arena ownership never changes set semantics, only
// where the initial words live.
//
// A nil *Arena is valid everywhere and means the heap: Dense, Sparse
// and Row then allocate each set on its own, so callers thread an
// optional arena without branching.
package arena

import "sideeffect/internal/bitset"

// Slab growth: start small so toy programs pay a few hundred bytes,
// double per slab so the slab count stays small, and cap low, because
// the unused tail of the last slab lives as long as the result: with
// 512 KiB and 4096-header caps, a session holding a 513-procedure
// analysis kept 0.85 MB of its 2.4 MB of arena storage unused.
const (
	firstWordChunk = 1 << 10 // 8 KiB of set payload
	maxWordChunk   = 1 << 13 // 64 KiB
	firstHdrChunk  = 64
	maxHdrChunk    = 512
	elemChunkSets  = 64 // sparse element buffers per elems slab
)

// DenseRowBits is the universe size, in bits, up to which every result
// row is dense at universe width: 32·SparseMax bits is the 128 bytes of
// one sparse element block, so there a dense row costs no more memory
// than a sparse one and keeps every union word-parallel.
const DenseRowBits = 32 * bitset.SparseMax

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
// [0, nbits), its words carved from the arena (from the heap on a nil
// receiver).
func (a *Arena) Dense(nbits int) *bitset.Set {
	if a == nil {
		return bitset.New(nbits)
	}
	w := (max(nbits, 0) + 63) / 64
	s := a.hdr()
	*s = bitset.MakeDense(a.wordBlock(w))
	return s
}

// Sparse returns an empty sparse set whose element buffer (capacity
// bitset.SparseMax) is carved from the arena; on a nil receiver it is
// bitset.NewSparse. It promotes to a heap-allocated dense vector if it
// outgrows the buffer.
func (a *Arena) Sparse() *bitset.Set {
	if a == nil {
		return bitset.NewSparse()
	}
	if len(a.elems) < bitset.SparseMax {
		a.elems = make([]uint32, elemChunkSets*bitset.SparseMax)
	}
	buf := a.elems[:bitset.SparseMax:bitset.SparseMax]
	a.elems = a.elems[bitset.SparseMax:]
	s := a.hdr()
	*s = bitset.MakeSparse(buf)
	return s
}

// Row returns a result row over a universe of nbits that holds a copy
// of t (an empty row when t is nil). It is the one storage rule for
// result rows:
//
//   - nbits ≤ DenseRowBits: dense at universe width, which costs no
//     more than a sparse block;
//   - otherwise t's representation: a sparse t (nil included) gets a
//     sparse block, a dense t a dense row as wide as t. Small rows stay
//     small and promote only if the solution grows past SparseMax.
func (a *Arena) Row(nbits int, t *bitset.Set) *bitset.Set {
	if nbits <= DenseRowBits {
		s := a.Dense(nbits)
		s.UnionWith(t)
		return s
	}
	if t == nil || t.IsSparse() {
		return a.Sparse().CopyFrom(t)
	}
	return a.Dense(t.Words() * 64).CopyFrom(t)
}
