package alias

import (
	"testing"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
)

func analyze(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := sem.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasPair(a *Analysis, p *ir.Procedure, x, y *ir.Variable) bool {
	want := pack(x.ID, y.ID)
	for _, pr := range a.Pairs(p) {
		if pack(pr.X, pr.Y) == want {
			return true
		}
	}
	return false
}

func TestGlobalFormalAlias(t *testing.T) {
	prog := analyze(t, `
program ga;
global g;
proc q(ref f) begin f := 1 end;
begin call q(g) end.
`)
	a := Compute(prog)
	q := prog.Proc("q")
	if !hasPair(a, q, prog.Var("q.f"), prog.Var("g")) {
		t.Errorf("missing ⟨f, g⟩ in ALIAS(q): %v", a.Pairs(q))
	}
	if a.NumPairs() != 1 {
		t.Errorf("NumPairs = %d, want 1", a.NumPairs())
	}
}

func TestSameActualTwice(t *testing.T) {
	prog := analyze(t, `
program st;
global g;
proc q(ref x, ref y) begin x := y end;
begin call q(g, g) end.
`)
	a := Compute(prog)
	q := prog.Proc("q")
	x, y := prog.Var("q.x"), prog.Var("q.y")
	if !hasPair(a, q, x, y) {
		t.Errorf("missing ⟨x, y⟩: %v", a.Pairs(q))
	}
	// Also both alias g.
	g := prog.Var("g")
	if !hasPair(a, q, x, g) || !hasPair(a, q, y, g) {
		t.Errorf("missing formal-global pairs: %v", a.Pairs(q))
	}
}

func TestTransitivePropagation(t *testing.T) {
	prog := analyze(t, `
program tp;
global g;
proc leaf(ref c) begin c := 1 end;
proc mid(ref b) begin call leaf(b) end;
begin call mid(g) end.
`)
	a := Compute(prog)
	// ⟨b, g⟩ in mid, then ⟨c, g⟩ in leaf via source 3a.
	if !hasPair(a, prog.Proc("mid"), prog.Var("mid.b"), prog.Var("g")) {
		t.Error("missing ⟨b, g⟩ in mid")
	}
	if !hasPair(a, prog.Proc("leaf"), prog.Var("leaf.c"), prog.Var("g")) {
		t.Error("missing ⟨c, g⟩ in leaf")
	}
}

func TestAliasedActualsPair(t *testing.T) {
	prog := analyze(t, `
program ap;
global g;
proc two(ref x, ref y) begin x := y end;
proc one(ref f) begin call two(f, g) end;
begin call one(g) end.
`)
	a := Compute(prog)
	// In one: ⟨f, g⟩. Call two(f, g): actuals f and g are aliased →
	// ⟨x, y⟩ in two (source 3b). Also ⟨x, g⟩ (3a) and ⟨y, g⟩ (1).
	two := prog.Proc("two")
	x, y, g := prog.Var("two.x"), prog.Var("two.y"), prog.Var("g")
	if !hasPair(a, two, x, y) {
		t.Errorf("missing ⟨x, y⟩: %v", a.Pairs(two))
	}
	if !hasPair(a, two, x, g) || !hasPair(a, two, y, g) {
		t.Errorf("missing global pairs: %v", a.Pairs(two))
	}
}

func TestLocalActualNoAlias(t *testing.T) {
	prog := analyze(t, `
program la;
proc q(ref f) begin f := 1 end;
proc p()
  var t;
begin
  call q(t)
end;
begin call p() end.
`)
	a := Compute(prog)
	// t is local to p and invisible in q: no pair introduced.
	if a.NumPairs() != 0 {
		t.Errorf("NumPairs = %d, want 0: %v", a.NumPairs(), a.Pairs(prog.Proc("q")))
	}
}

func TestNestedVisibleLocalAlias(t *testing.T) {
	prog := analyze(t, `
program nl;
proc outer(ref o)
  var t;
  proc inner(ref f) begin f := 1 end;
begin
  call inner(t)
end;
global g;
begin call outer(g) end.
`)
	a := Compute(prog)
	inner := prog.Proc("inner")
	// t (local of outer) is visible inside inner → ⟨f, t⟩.
	if !hasPair(a, inner, prog.Var("inner.f"), prog.Var("outer.t")) {
		t.Errorf("missing ⟨f, t⟩: %v", a.Pairs(inner))
	}
}

func TestRecursiveConvergence(t *testing.T) {
	prog := analyze(t, `
program rc;
global g, h;
proc f(ref a, ref b)
begin
  call f(b, a)
end;
begin call f(g, h) end.
`)
	a := Compute(prog) // must terminate
	f := prog.Proc("f")
	av, bv, g, h := prog.Var("f.a"), prog.Var("f.b"), prog.Var("g"), prog.Var("h")
	// Swapping recursion aliases both formals to both globals.
	for _, pr := range [][2]*ir.Variable{{av, g}, {av, h}, {bv, g}, {bv, h}} {
		if !hasPair(a, f, pr[0], pr[1]) {
			t.Errorf("missing ⟨%s, %s⟩: %v", pr[0], pr[1], a.Pairs(f))
		}
	}
}

func TestFactor(t *testing.T) {
	prog := analyze(t, `
program fa;
global g;
proc q(ref f) begin f := 1 end;
begin call q(g) end.
`)
	res := core.Analyze(prog, core.Mod, core.Options{})
	mod := ComputeMOD(res)
	cs := prog.Sites[0]
	// DMOD(s) = {g}; ALIAS(main) is empty, so MOD(s) = {g}.
	if !mod[cs.ID].Has(prog.Var("g").ID) || mod[cs.ID].Len() != 1 {
		t.Errorf("MOD = %v", mod[cs.ID])
	}
}

func TestFactorAddsAliases(t *testing.T) {
	prog := analyze(t, `
program fb;
global g;
proc inner(ref x) begin x := 1 end;
proc outer(ref f)
begin
  call inner(f)
end;
begin call outer(g) end.
`)
	res := core.Analyze(prog, core.Mod, core.Options{})
	a := Compute(prog)
	mod := a.Factor(res.DMOD)
	// Call site inner(f) inside outer: DMOD = {f}. ALIAS(outer) has
	// ⟨f, g⟩, so MOD = {f, g}.
	var site *ir.CallSite
	for _, cs := range prog.Sites {
		if cs.Caller.Name == "outer" {
			site = cs
		}
	}
	f, g := prog.Var("outer.f"), prog.Var("g")
	if !res.DMOD[site.ID].Has(f.ID) || res.DMOD[site.ID].Has(g.ID) {
		t.Fatalf("DMOD = %v", res.DMOD[site.ID])
	}
	if !mod[site.ID].Has(f.ID) || !mod[site.ID].Has(g.ID) {
		t.Errorf("MOD = %v, want {f, g}", mod[site.ID])
	}
	// Factor must not mutate DMOD.
	if res.DMOD[site.ID].Has(g.ID) {
		t.Error("Factor mutated DMOD")
	}
}

func TestFactorEmptyDMOD(t *testing.T) {
	prog := analyze(t, `
program fe;
proc noop() begin end;
begin call noop() end.
`)
	res := core.Analyze(prog, core.Mod, core.Options{})
	mod := ComputeMOD(res)
	if !mod[0].Equal(bitset.New(0)) {
		t.Errorf("MOD = %v, want empty", mod[0])
	}
}

func TestNestingPropagatesPairs(t *testing.T) {
	// The pair ⟨f, g⟩ holds on entry to outer; inner (lexically nested
	// in outer) runs during outer's activation, so the pair must hold
	// there too — otherwise a write to f inside code called from inner
	// would not be reported as a write to g at inner's call sites.
	prog := analyze(t, `
program np;
global g;
proc set(ref y) begin y := 1 end;
proc outer(ref f)
  proc inner()
  begin
    call set(f)
  end;
begin
  call inner()
end;
begin call outer(g) end.
`)
	a := Compute(prog)
	inner := prog.Proc("inner")
	if !hasPair(a, inner, prog.Var("outer.f"), prog.Var("g")) {
		t.Errorf("ALIAS(inner) missing inherited ⟨f, g⟩: %v", a.Pairs(inner))
	}
	// And the pair propagates onward through inner's call.
	set := prog.Proc("set")
	if !hasPair(a, set, prog.Var("set.y"), prog.Var("g")) {
		t.Errorf("ALIAS(set) missing ⟨y, g⟩: %v", a.Pairs(set))
	}
}
