package arena

import (
	"testing"

	"sideeffect/internal/bitset"
)

func TestDenseCarving(t *testing.T) {
	var a Arena
	s1 := a.Dense(128)
	s2 := a.Dense(128)
	s1.Add(5)
	s1.Add(127)
	if s2.Has(5) || s2.Has(127) || !s2.Empty() {
		t.Fatal("adjacent arena sets share bits")
	}
	s2.Add(64)
	if s1.Has(64) {
		t.Fatal("adjacent arena sets share bits (reverse)")
	}
}

func TestDenseGrowsPastBlock(t *testing.T) {
	var a Arena
	s := a.Dense(64)
	neighbor := a.Dense(64)
	s.Add(500) // outgrows its block: must fall back to the heap
	if !s.Has(500) {
		t.Fatal("growth past block lost the element")
	}
	s.Add(63)
	if neighbor.Has(63) || !neighbor.Empty() {
		t.Fatal("set that outgrew its block still aliases the slab")
	}
}

func TestSparseAndClone(t *testing.T) {
	var a Arena
	sp := a.Sparse()
	if !sp.IsSparse() {
		t.Fatal("Sparse() returned dense set")
	}
	for i := 0; i < bitset.SparseMax+3; i++ {
		sp.Add(i * 5)
	}
	if sp.IsSparse() {
		t.Fatal("arena sparse set did not promote past its buffer")
	}
	orig := bitset.FromSlice([]int{1, 99, 700})
	c := a.Clone(orig)
	if !c.Equal(orig) {
		t.Fatalf("Clone = %v, want %v", c, orig)
	}
	c.Add(4)
	if orig.Has(4) {
		t.Fatal("Clone aliases its source")
	}
	spOrig := bitset.NewSparse()
	spOrig.Add(7)
	c2 := a.Clone(spOrig)
	if !c2.IsSparse() || !c2.Equal(spOrig) {
		t.Fatal("Clone did not preserve sparse representation")
	}
	if !a.Clone(nil).Empty() {
		t.Fatal("Clone(nil) not empty")
	}
}

func TestBigRequestAndManySets(t *testing.T) {
	var a Arena
	big := a.Dense(10 * 64 * firstWordChunk) // larger than any chunk
	big.Add(639_999)
	if !big.Has(639_999) {
		t.Fatal("oversized request broken")
	}
	for i := 0; i < 5000; i++ {
		s := a.Dense(256)
		s.Add(i % 256)
		if s.Len() != 1 {
			t.Fatalf("set %d corrupted", i)
		}
	}
}
