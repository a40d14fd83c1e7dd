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
	const wide = DenseRowBits + 1
	orig := bitset.FromSlice([]int{1, 99, 700})
	c := a.Row(wide, orig)
	if !c.Equal(orig) {
		t.Fatalf("Row = %v, want %v", c, orig)
	}
	c.Add(4)
	if orig.Has(4) {
		t.Fatal("Row aliases its source")
	}
	spOrig := bitset.NewSparse()
	spOrig.Add(7)
	c2 := a.Row(wide, spOrig)
	if !c2.IsSparse() || !c2.Equal(spOrig) {
		t.Fatal("Row did not preserve sparse representation")
	}
	if e := a.Row(wide, nil); !e.Empty() || !e.IsSparse() {
		t.Fatal("Row(nil) not an empty sparse row")
	}
}

// TestRowRule pins the storage rule on the arena and on the heap (a
// nil arena): up to DenseRowBits every row is dense at universe width,
// above it every row keeps its source's representation.
func TestRowRule(t *testing.T) {
	sparse := bitset.NewSparse()
	sparse.Add(3)
	dense := bitset.FromSlice([]int{3, 900})
	for _, ar := range []*Arena{new(Arena), nil} {
		for _, src := range []*bitset.Set{nil, sparse, dense} {
			narrow := ar.Row(DenseRowBits, src)
			if narrow.IsSparse() || narrow.Words() != DenseRowBits/64 {
				t.Errorf("arena=%v src=%v: small-universe row sparse=%v words=%d, want dense at %d words",
					ar != nil, src, narrow.IsSparse(), narrow.Words(), DenseRowBits/64)
			}
			wide := ar.Row(DenseRowBits+1, src)
			if want := src == nil || src.IsSparse(); wide.IsSparse() != want {
				t.Errorf("arena=%v src=%v: large-universe row sparse=%v, want %v", ar != nil, src, wide.IsSparse(), want)
			}
			if src != nil && (!narrow.Equal(src) || !wide.Equal(src)) {
				t.Errorf("arena=%v: Row(%v) lost elements", ar != nil, src)
			}
		}
		if d := ar.Dense(130); d.IsSparse() || d.Words() != 3 || !d.Empty() {
			t.Errorf("arena=%v: Dense(130) = %v with %d words", ar != nil, d, d.Words())
		}
		if s := ar.Sparse(); !s.IsSparse() || !s.Empty() {
			t.Errorf("arena=%v: Sparse() not an empty sparse set", ar != nil)
		}
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
