// Package bitset implements hybrid sparse/dense bit-vector sets over
// the integers [0, n). Interprocedural analyses manipulate sets whose
// universe is "every variable in the program", and the paper observes
// that such bit vectors grow linearly with program size; this package
// is the shared representation for GMOD/GUSE/IMOD+/LOCAL and friends.
//
// A Set has two representations. The dense form is the classic word
// array: element i is bit i%64 of word i/64. The sparse form is a
// short sorted element slice (cf. the Briggs–Torczon sparse-set
// discipline): most procedures touch only a handful of variables, so
// their seed sets fit in a few cache lines instead of a vector that
// spans the whole universe. A sparse set automatically promotes to
// dense, in place, the moment it exceeds SparseMax elements; it never
// demotes. Promotion happens only inside mutating methods on the
// receiver, so read-only operations (Has, Equal, Elems, serving as the
// t or mask argument of a union) are safe on Sets shared between
// goroutines.
//
// The zero value of Set is an empty dense set of capacity zero. All
// destructive operations grow the receiver as needed — with capacity
// doubling, so k incremental Adds cost O(k) amortized words copied —
// and a Set built with New(n) never needs resizing within a fixed
// universe.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// SparseMax is the element count beyond which a sparse set promotes to
// the dense representation. 32 sorted uint32s are two cache lines of
// payload — binary search plus insertion memmove at this size is
// cheaper than touching a universe-sized word vector. internal/arena
// carves sparse element blocks of exactly this capacity, so promotion
// is the only way a sparse set can outgrow its block, and a block's
// 32·SparseMax bits are the universe size up to which its result rows
// are dense instead.
const SparseMax = 32

// Set is a hybrid bit-vector set. Trailing zero words are permitted in
// the dense form; two Sets are Equal when they contain the same
// elements regardless of capacity or representation.
type Set struct {
	words  []uint64 // dense payload; ignored (possibly stale) while sparse
	elems  []uint32 // sparse payload: sorted, unique; ignored while dense
	sparse bool
}

// New returns an empty dense set with capacity for elements in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSparse returns an empty set in the sparse representation. It
// stays sparse until it exceeds SparseMax elements, then promotes to
// dense in place.
func NewSparse() *Set {
	return &Set{sparse: true}
}

// FromSlice returns a dense set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := New(0)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// MakeDense returns a dense Set value whose storage is the caller's
// word slice. The caller promises the slice is zeroed and not shared
// with another Set. internal/arena wraps the word blocks it carves out
// of a slab with it, so a carved set costs no heap allocation of its
// own; the set moves to the heap if it grows past the slice.
func MakeDense(words []uint64) Set {
	return Set{words: words}
}

// MakeSparse returns an empty sparse Set value whose element buffer is
// the caller's slice, not shared with another Set. internal/arena
// passes blocks of capacity SparseMax, so only promotion — to a
// heap-allocated dense vector — takes the set off its block.
func MakeSparse(buf []uint32) Set {
	return Set{elems: buf[:0], sparse: true}
}

// IsSparse reports whether the set currently uses the sparse
// representation. Exposed for tests and allocation accounting.
func (s *Set) IsSparse() bool { return s.sparse }

// promote converts a sparse set to the dense representation in place.
// Any retained dense capacity (left by a CopyFrom of a sparse source
// into a set that was dense) is cleared before the elements are
// re-inserted; the element buffer is kept for a potential later
// CopyFrom of a sparse source.
func (s *Set) promote() {
	if !s.sparse {
		return
	}
	s.sparse = false
	for i := range s.words {
		s.words[i] = 0
	}
	if n := len(s.elems); n > 0 {
		s.grow(int(s.elems[n-1]))
		for _, e := range s.elems {
			s.words[e/wordBits] |= 1 << (e % wordBits)
		}
	}
	s.elems = s.elems[:0]
}

// grow ensures the receiver is dense and can hold element i, doubling
// capacity so repeated incremental growth copies O(n) words total.
func (s *Set) grow(i int) {
	if s.sparse {
		s.promote()
	}
	w := i/wordBits + 1
	if w <= len(s.words) {
		return
	}
	if w <= cap(s.words) {
		n := len(s.words)
		s.words = s.words[:w]
		for j := n; j < w; j++ {
			s.words[j] = 0
		}
		return
	}
	c := 2 * cap(s.words)
	if c < w {
		c = w
	}
	nw := make([]uint64, w, c)
	copy(nw, s.words)
	s.words = nw
}

// findSparse binary-searches the sorted element slice for e, returning
// the insertion index and whether e is present.
func (s *Set) findSparse(e uint32) (int, bool) {
	lo, hi := 0, len(s.elems)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.elems[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.elems) && s.elems[lo] == e
}

// Add inserts i into the set. It panics if i is negative.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: Add(%d): negative element", i))
	}
	if s.sparse {
		e := uint32(i)
		k, ok := s.findSparse(e)
		if ok {
			return
		}
		if len(s.elems) < SparseMax {
			s.elems = append(s.elems, 0)
			copy(s.elems[k+1:], s.elems[k:])
			s.elems[k] = e
			return
		}
		s.promote() // boundary crossed: fall through to dense insert
	}
	s.grow(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 {
		return
	}
	if s.sparse {
		if k, ok := s.findSparse(uint32(i)); ok {
			s.elems = append(s.elems[:k], s.elems[k+1:]...)
		}
		return
	}
	if i/wordBits >= len(s.words) {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	if s.sparse {
		_, ok := s.findSparse(uint32(i))
		return ok
	}
	if i/wordBits >= len(s.words) {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	if s.sparse {
		return len(s.elems)
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	if s.sparse {
		return len(s.elems) == 0
	}
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, retaining capacity and representation.
func (s *Set) Clear() {
	if s.sparse {
		s.elems = s.elems[:0]
		return
	}
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom makes s an exact copy of t — same elements, same
// representation, capacity at least t's — reusing s's backing storage
// when it is large enough, so one temporary can serve a whole loop. It
// returns s. CopyFrom(nil) clears s.
func (s *Set) CopyFrom(t *Set) *Set {
	if t == nil {
		s.Clear()
		return s
	}
	if t == s {
		return s
	}
	if t.sparse {
		s.elems = append(s.elems[:0], t.elems...)
		s.sparse = true
		return s
	}
	if s.sparse {
		s.sparse = false
		s.elems = s.elems[:0]
		// Stale dense words are fully overwritten by the copy and the
		// zero-tail loop below.
	}
	if len(t.words) > len(s.words) {
		s.grow(len(t.words)*wordBits - 1)
	}
	n := copy(s.words, t.words)
	for i := n; i < len(s.words); i++ {
		s.words[i] = 0
	}
	return s
}

// Clone returns an independent copy of the set in the same
// representation.
func (s *Set) Clone() *Set {
	if s.sparse {
		c := &Set{sparse: true}
		if len(s.elems) > 0 {
			c.elems = append(make([]uint32, 0, len(s.elems)), s.elems...)
		}
		return c
	}
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// denseWords returns t's word slice with trailing zero words trimmed,
// so unions never force the receiver to materialize capacity for
// elements t does not actually contain.
func denseWords(t *Set) []uint64 {
	w := t.words
	for len(w) > 0 && w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	return w
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	return s.UnionInPlaceCount(t) > 0
}

// UnionInPlaceCount adds every element of t to s and returns the
// number of elements that were newly added (0 means the union was a
// no-op). SCC passes use the count to skip propagating unions that
// changed nothing.
func (s *Set) UnionInPlaceCount(t *Set) int {
	if t == nil || t == s {
		return 0
	}
	if t.sparse {
		added := 0
		for _, e := range t.elems {
			if !s.Has(int(e)) {
				s.Add(int(e))
				added++
			}
		}
		return added
	}
	tw := t.words
	if s.sparse {
		// A small sparse receiver absorbing a dense argument: count
		// t's bits first so a union that fits stays sparse.
		n := 0
		for _, w := range tw {
			n += bits.OnesCount64(w)
		}
		if len(s.elems)+n > SparseMax {
			s.promote()
		} else {
			added := 0
			for wi, w := range tw {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					e := wi*wordBits + b
					if !s.Has(e) {
						s.Add(e)
						added++
					}
				}
			}
			return added
		}
	}
	if len(tw) > len(s.words) {
		// Trim t's trailing zero words before growing: a union must not
		// force capacity for elements t does not actually contain. When
		// the receiver is already wide enough — every union onto a
		// universe-width arena row — the scan is skipped entirely.
		if tw = denseWords(t); len(tw) > len(s.words) {
			s.grow(len(tw)*wordBits - 1)
		}
	}
	added := 0
	for i, w := range tw {
		old := s.words[i]
		if nw := old | w; nw != old {
			s.words[i] = nw
			added += bits.OnesCount64(nw &^ old)
		}
	}
	return added
}

// sparseMaskWord collects mask elements that fall into dense word wi
// as a bit mask, advancing *j. Callers iterate wi in increasing order,
// so the cursor never rewinds.
func sparseMaskWord(elems []uint32, j *int, wi int) uint64 {
	for *j < len(elems) && int(elems[*j])/wordBits < wi {
		*j++
	}
	var mw uint64
	for k := *j; k < len(elems) && int(elems[k])/wordBits == wi; k++ {
		mw |= 1 << (elems[k] % wordBits)
	}
	return mw
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	if t == s {
		return
	}
	if s.sparse {
		keep := s.elems[:0]
		for _, e := range s.elems {
			if t != nil && t.Has(int(e)) {
				keep = append(keep, e)
			}
		}
		s.elems = keep
		return
	}
	if t != nil && t.sparse {
		j := 0
		for i := range s.words {
			s.words[i] &= sparseMaskWord(t.elems, &j, i)
		}
		return
	}
	for i := range s.words {
		if t == nil || i >= len(t.words) {
			s.words[i] = 0
		} else {
			s.words[i] &= t.words[i]
		}
	}
}

// DifferenceWith removes from s every element of t.
func (s *Set) DifferenceWith(t *Set) {
	if t == nil {
		return
	}
	if t == s {
		s.Clear()
		return
	}
	if s.sparse {
		keep := s.elems[:0]
		for _, e := range s.elems {
			if !t.Has(int(e)) {
				keep = append(keep, e)
			}
		}
		s.elems = keep
		return
	}
	if t.sparse {
		for _, e := range t.elems {
			if int(e)/wordBits < len(s.words) {
				s.words[e/wordBits] &^= 1 << (e % wordBits)
			}
		}
		return
	}
	for i := range s.words {
		if i >= len(t.words) {
			break
		}
		s.words[i] &^= t.words[i]
	}
}

// UnionDiffWith adds to s every element of t that is NOT in mask, and
// reports whether s changed. This is the workhorse of equation (4) of
// the paper: GMOD[p] ∪= GMOD[q] ∖ LOCAL[q], performed in a single pass
// without allocating a temporary. Any mix of representations works;
// t and mask are never mutated.
func (s *Set) UnionDiffWith(t, mask *Set) bool {
	if t == nil || t == s {
		return false
	}
	if t.sparse {
		changed := false
		for _, e := range t.elems {
			if mask != nil && mask.Has(int(e)) {
				continue
			}
			if !s.Has(int(e)) {
				s.Add(int(e))
				changed = true
			}
		}
		return changed
	}
	tw := t.words
	if s.sparse {
		changed := false
		for wi, w := range tw {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				e := wi*wordBits + b
				if mask != nil && mask.Has(e) {
					continue
				}
				if !s.Has(e) {
					s.Add(e) // may promote mid-loop; Add stays correct
					changed = true
				}
			}
		}
		return changed
	}
	if len(tw) > len(s.words) {
		// See UnionInPlaceCount: trim only when growth is at stake.
		if tw = denseWords(t); len(tw) > len(s.words) {
			s.grow(len(tw)*wordBits - 1)
		}
	}
	changed := false
	if mask != nil && mask.sparse {
		j := 0
		for i, w := range tw {
			w &^= sparseMaskWord(mask.elems, &j, i)
			old := s.words[i]
			if nw := old | w; nw != old {
				s.words[i] = nw
				changed = true
			}
		}
		return changed
	}
	for i, w := range tw {
		if mask != nil && i < len(mask.words) {
			w &^= mask.words[i]
		}
		old := s.words[i]
		if nw := old | w; nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Union returns a new set s ∪ t.
func Union(s, t *Set) *Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns a new set s ∩ t.
func Intersect(s, t *Set) *Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Difference returns a new set s ∖ t.
func Difference(s, t *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}

// equalSparseDense reports whether the sorted element slice and the
// dense word vector denote the same set.
func equalSparseDense(elems []uint32, words []uint64) bool {
	j := 0
	for wi, w := range words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if j >= len(elems) || int(elems[j]) != wi*wordBits+b {
				return false
			}
			j++
		}
	}
	return j == len(elems)
}

// Equal reports whether s and t contain the same elements, regardless
// of capacity or representation.
func (s *Set) Equal(t *Set) bool {
	if t == nil {
		return s == nil || s.Empty()
	}
	if s == nil {
		return t.Empty()
	}
	switch {
	case s.sparse && t.sparse:
		if len(s.elems) != len(t.elems) {
			return false
		}
		for i, e := range s.elems {
			if t.elems[i] != e {
				return false
			}
		}
		return true
	case s.sparse:
		return equalSparseDense(s.elems, t.words)
	case t.sparse:
		return equalSparseDense(t.elems, s.words)
	}
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.sparse {
		for _, e := range s.elems {
			if t == nil || !t.Has(int(e)) {
				return false
			}
		}
		return true
	}
	if t != nil && t.sparse {
		j := 0
		for i, w := range s.words {
			if w&^sparseMaskWord(t.elems, &j, i) != 0 {
				return false
			}
		}
		return true
	}
	for i, w := range s.words {
		var tw uint64
		if t != nil && i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	if t == nil {
		return false
	}
	if s.sparse {
		for _, e := range s.elems {
			if t.Has(int(e)) {
				return true
			}
		}
		return false
	}
	if t.sparse {
		for _, e := range t.elems {
			if s.Has(int(e)) {
				return true
			}
		}
		return false
	}
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements of the set in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(int)) {
	if s.sparse {
		for _, e := range s.elems {
			f(int(e))
		}
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Words returns the number of 64-bit words the set spans: the backing
// length for dense sets, the span up to the largest element for sparse
// ones. It is the unit in which "bit-vector steps" are converted to
// machine operations when the experiment harness reports operation
// counts.
func (s *Set) Words() int {
	if s.sparse {
		if len(s.elems) == 0 {
			return 0
		}
		return int(s.elems[len(s.elems)-1])/wordBits + 1
	}
	return len(s.words)
}
