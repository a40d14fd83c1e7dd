package bitset

import "testing"

func TestCopyFrom(t *testing.T) {
	t.Run("grows", func(t *testing.T) {
		s := New(0)
		tt := FromSlice([]int{1, 70, 500})
		s.CopyFrom(tt)
		if !s.Equal(tt) {
			t.Errorf("CopyFrom = %s, want %s", s, tt)
		}
	})
	t.Run("clears-tail", func(t *testing.T) {
		s := FromSlice([]int{600})
		s.CopyFrom(FromSlice([]int{2}))
		if !s.Equal(FromSlice([]int{2})) {
			t.Errorf("stale tail survives CopyFrom: %s", s)
		}
	})
	t.Run("nil-clears", func(t *testing.T) {
		s := FromSlice([]int{5})
		s.CopyFrom(nil)
		if !s.Empty() {
			t.Errorf("CopyFrom(nil) = %s", s)
		}
	})
	// A temporary reused across a loop flips representation with its
	// sources: a sparse copy leaves the old dense words behind, and
	// neither a later dense copy nor a promotion may resurface them.
	t.Run("reuse-across-representations", func(t *testing.T) {
		s := New(256)
		s.Add(63)
		s.Add(130)
		s.CopyFrom(sparseFromSlice([]int{2}))
		if !s.IsSparse() || !s.Equal(FromSlice([]int{2})) {
			t.Fatalf("CopyFrom(sparse) = %s (sparse=%v)", s, s.IsSparse())
		}
		for i := 0; i <= SparseMax; i++ { // the last Add promotes
			s.Add(200 + i)
		}
		if s.IsSparse() || s.Has(63) || s.Has(130) || !s.Has(2) {
			t.Errorf("stale dense words resurfaced on promotion: %s", s)
		}
		s.CopyFrom(sparseFromSlice([]int{9}))
		s.CopyFrom(FromSlice([]int{64}))
		if s.IsSparse() || !s.Equal(FromSlice([]int{64})) {
			t.Errorf("stale dense words resurfaced on a dense copy: %s", s)
		}
	})
}
