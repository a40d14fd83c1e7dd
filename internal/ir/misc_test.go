package ir

import (
	"strings"
	"testing"

	"sideeffect/internal/lang/token"
)

func TestVariableStringAndPredicates(t *testing.T) {
	b := NewBuilder("m")
	g := b.Global("g")
	p := b.Proc("p", nil)
	f := b.Formal(p, "x", FormalRef, 0)
	l := b.Local(p, "t")
	if g.String() != "g" || f.String() != "p.x" || l.String() != "p.t" {
		t.Errorf("String: %q %q %q", g, f, l)
	}
	if !g.IsGlobal() || f.IsGlobal() {
		t.Error("IsGlobal wrong")
	}
	if !f.IsFormal() || g.IsFormal() || l.IsFormal() {
		t.Error("IsFormal wrong")
	}
}

func TestCallSiteString(t *testing.T) {
	b := NewBuilder("m")
	p := b.Proc("p", nil)
	cs := b.Call(b.Main(), p, nil, token.Pos{})
	if got := cs.String(); !strings.Contains(got, "$main") || !strings.Contains(got, "p") {
		t.Errorf("CallSite.String = %q", got)
	}
}

func TestMaxLevel(t *testing.T) {
	b := NewBuilder("m")
	p := b.Proc("p", nil)
	q := b.Proc("q", p)
	r := b.Proc("r", q)
	_ = r
	prog := b.MustFinish()
	if prog.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", prog.MaxLevel())
	}
	flat := NewBuilder("f").MustFinish()
	if flat.MaxLevel() != 0 {
		t.Errorf("flat MaxLevel = %d", flat.MaxLevel())
	}
}

func TestLookupMisses(t *testing.T) {
	prog := NewBuilder("m").MustFinish()
	if prog.Proc("nope") != nil {
		t.Error("Proc miss returned non-nil")
	}
	if prog.Var("nope") != nil {
		t.Error("Var miss returned non-nil")
	}
}

func TestVarKindStringAll(t *testing.T) {
	for k, want := range map[VarKind]string{
		Global: "global", Local: "local",
		FormalRef: "ref formal", FormalVal: "val formal",
		VarKind(99): "VarKind(99)",
	} {
		if k.String() != want {
			t.Errorf("VarKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestMustFinishPanicsOnInvalid(t *testing.T) {
	b := NewBuilder("bad")
	g := b.Global("g")
	q := b.Proc("q", nil)
	b.Formal(q, "y", FormalRef, 0)
	// Mode mismatch slips past Call's arity check and must be caught
	// by Validate inside MustFinish.
	b.Call(b.Main(), q, []Actual{{Mode: FormalVal, Var: g, Uses: []*Variable{g}}}, g.Pos)
	defer func() {
		if recover() == nil {
			t.Error("MustFinish did not panic on invalid program")
		}
	}()
	b.MustFinish()
}

func TestFormalPanicsOnBadKind(t *testing.T) {
	b := NewBuilder("bad")
	p := b.Proc("p", nil)
	defer func() {
		if recover() == nil {
			t.Error("Formal with kind Global did not panic")
		}
	}()
	b.Formal(p, "x", Global, 0)
}

func TestValidateCatchesBadIMOD(t *testing.T) {
	b := NewBuilder("bad")
	p := b.Proc("p", nil)
	q := b.Proc("q", nil)
	lq := b.Local(q, "t")
	// p cannot see q's local; poke it in directly.
	p.IMOD.Add(lq.ID)
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "invisible") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateCatchesSubscriptArity(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Global("A", 4, 4)
	q := b.Proc("q", nil)
	b.Formal(q, "e", FormalRef, 0)
	// One subscript for a rank-2 array.
	b.Call(b.Main(), q, []Actual{{Mode: FormalRef, Var: a,
		Subs: []Sub{{Kind: SubConst, Const: 1}}}}, a.Pos)
	if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), "subscripts") {
		t.Errorf("err = %v", err)
	}
}

// TestNameOrder checks the ranks against string order, that equal
// names share a rank, the space check, and the build rule: the order
// waits until the sorts asked for cost as much as ranking every
// variable.
func TestNameOrder(t *testing.T) {
	b := NewBuilder("names")
	for _, g := range []string{"b", "a", "p.x", "a b"} {
		b.Global(g)
	}
	p := b.Proc("p", nil)
	b.Local(p, "x")
	b.Local(p, "a")
	prog := b.MustFinish()
	if o := prog.NameOrder(1); o != nil {
		t.Fatal("one small sort built the order")
	}
	o := prog.NameOrder(len(prog.Vars))
	if o == nil {
		t.Fatal("a sort as large as the program did not build the order")
	}
	for i, v := range prog.Vars {
		for j, w := range prog.Vars {
			if got, want := o.Rank(i) < o.Rank(j), v.String() < w.String(); got != want {
				t.Errorf("Rank(%q) < Rank(%q) = %v", v, w, got)
			}
			if got, want := o.PlainRank(i) == o.PlainRank(j), v.Name == w.Name; got != want {
				t.Errorf("PlainRank(%q) == PlainRank(%q) = %v", v.Name, w.Name, got)
			}
			if got, want := o.Position(i) < o.Position(j), v.String() < w.String() || v.String() == w.String() && i < j; got != want {
				t.Errorf("Position(%q) < Position(%q) = %v", v, w, got)
			}
		}
		if o.At(o.Position(i)) != v.String() {
			t.Errorf("At(Position(%d)) = %q, want %q", i, o.At(o.Position(i)), v)
		}
	}
	if o.SpaceFree() {
		t.Error(`SpaceFree with a global named "a b"`)
	}
	if prog.NameOrder(0) != o {
		t.Error("the order was built twice")
	}
}
