package alias

import (
	"fmt"
	"slices"
	"testing"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/workload"
)

func analyze(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := sem.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ComputeMOD is the complete Section 5 pipeline: given a core result
// (DMOD plus the supporting sets), produce final MOD (or USE) sets per
// call site.
func ComputeMOD(res *core.Result) []*bitset.Set {
	return Compute(res.Prog).Factor(res.DMOD)
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

const srcGlobalFormal = `
program ga;
global g;
proc q(ref f) begin f := 1 end;
begin call q(g) end.
`

func TestGlobalFormalAlias(t *testing.T) {
	prog := analyze(t, srcGlobalFormal)
	a := Compute(prog)
	q := prog.Proc("q")
	if !hasPair(a, q, prog.Var("q.f"), prog.Var("g")) {
		t.Errorf("missing ⟨f, g⟩ in ALIAS(q): %v", a.Pairs(q))
	}
	if a.NumPairs() != 1 {
		t.Errorf("NumPairs = %d, want 1", a.NumPairs())
	}
}

const srcSameActualTwice = `
program st;
global g;
proc q(ref x, ref y) begin x := y end;
begin call q(g, g) end.
`

func TestSameActualTwice(t *testing.T) {
	prog := analyze(t, srcSameActualTwice)
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

const srcTransitive = `
program tp;
global g;
proc leaf(ref c) begin c := 1 end;
proc mid(ref b) begin call leaf(b) end;
begin call mid(g) end.
`

func TestTransitivePropagation(t *testing.T) {
	prog := analyze(t, srcTransitive)
	a := Compute(prog)
	// ⟨b, g⟩ in mid, then ⟨c, g⟩ in leaf via source 3a.
	if !hasPair(a, prog.Proc("mid"), prog.Var("mid.b"), prog.Var("g")) {
		t.Error("missing ⟨b, g⟩ in mid")
	}
	if !hasPair(a, prog.Proc("leaf"), prog.Var("leaf.c"), prog.Var("g")) {
		t.Error("missing ⟨c, g⟩ in leaf")
	}
}

const srcAliasedActuals = `
program ap;
global g;
proc two(ref x, ref y) begin x := y end;
proc one(ref f) begin call two(f, g) end;
begin call one(g) end.
`

func TestAliasedActualsPair(t *testing.T) {
	prog := analyze(t, srcAliasedActuals)
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

const srcLocalActual = `
program la;
proc q(ref f) begin f := 1 end;
proc p()
  var t;
begin
  call q(t)
end;
begin call p() end.
`

func TestLocalActualNoAlias(t *testing.T) {
	prog := analyze(t, srcLocalActual)
	a := Compute(prog)
	// t is local to p and invisible in q: no pair introduced.
	if a.NumPairs() != 0 {
		t.Errorf("NumPairs = %d, want 0: %v", a.NumPairs(), a.Pairs(prog.Proc("q")))
	}
}

const srcNestedVisibleLocal = `
program nl;
proc outer(ref o)
  var t;
  proc inner(ref f) begin f := 1 end;
begin
  call inner(t)
end;
global g;
begin call outer(g) end.
`

func TestNestedVisibleLocalAlias(t *testing.T) {
	prog := analyze(t, srcNestedVisibleLocal)
	a := Compute(prog)
	inner := prog.Proc("inner")
	// t (local of outer) is visible inside inner → ⟨f, t⟩.
	if !hasPair(a, inner, prog.Var("inner.f"), prog.Var("outer.t")) {
		t.Errorf("missing ⟨f, t⟩: %v", a.Pairs(inner))
	}
}

const srcRecursive = `
program rc;
global g, h;
proc f(ref a, ref b)
begin
  call f(b, a)
end;
begin call f(g, h) end.
`

func TestRecursiveConvergence(t *testing.T) {
	prog := analyze(t, srcRecursive)
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

const srcFactor = `
program fa;
global g;
proc q(ref f) begin f := 1 end;
begin call q(g) end.
`

func TestFactor(t *testing.T) {
	prog := analyze(t, srcFactor)
	res := core.Analyze(prog, core.Mod, core.Options{})
	mod := ComputeMOD(res)
	cs := prog.Sites[0]
	// DMOD(s) = {g}; ALIAS(main) is empty, so MOD(s) = {g}.
	if !mod[cs.ID].Has(prog.Var("g").ID) || mod[cs.ID].Len() != 1 {
		t.Errorf("MOD = %v", mod[cs.ID])
	}
}

const srcFactorAdds = `
program fb;
global g;
proc inner(ref x) begin x := 1 end;
proc outer(ref f)
begin
  call inner(f)
end;
begin call outer(g) end.
`

func TestFactorAddsAliases(t *testing.T) {
	prog := analyze(t, srcFactorAdds)
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

const srcFactorEmpty = `
program fe;
proc noop() begin end;
begin call noop() end.
`

func TestFactorEmptyDMOD(t *testing.T) {
	prog := analyze(t, srcFactorEmpty)
	res := core.Analyze(prog, core.Mod, core.Options{})
	mod := ComputeMOD(res)
	if !mod[0].Equal(bitset.New(0)) {
		t.Errorf("MOD = %v, want empty", mod[0])
	}
}

const srcNesting = `
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
`

func TestNestingPropagatesPairs(t *testing.T) {
	// The pair ⟨f, g⟩ holds on entry to outer; inner (lexically nested
	// in outer) runs during outer's activation, so the pair must hold
	// there too — otherwise a write to f inside code called from inner
	// would not be reported as a write to g at inner's call sites.
	prog := analyze(t, srcNesting)
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

// referenceAnalysis is the alias solution as the monotone worklist
// below computes it: ALIAS(p) as sorted pairs and as per-procedure
// adjacency maps. It is the oracle for Compute's difference
// propagation and for FactorArena's walk over the sorted pairs.
type referenceAnalysis struct {
	Prog *ir.Program
	// pairs[pid] is ALIAS(p), sorted by (X, Y).
	pairs [][]Pair
	// adj[pid] maps a variable ID to the IDs aliased to it in p.
	adj []map[int][]int32
}

// referenceCompute is the worklist over the call multi-graph: a
// procedure whose pairs grew is queued again and rescans every call
// site against its whole adjacency.
func referenceCompute(prog *ir.Program) *referenceAnalysis {
	a := &referenceAnalysis{
		Prog: prog,
		adj:  make([]map[int][]int32, prog.NumProcs()),
	}
	// sets[pid] is ALIAS(p) while the worklist runs, each pair packed
	// as X<<32|Y with X < Y. Maps are allocated lazily: most procedures
	// of realistic programs have no alias pairs at all, and the nil map
	// reads below are free.
	sets := make([]map[uint64]struct{}, prog.NumProcs())
	add := func(pid, x, y int) bool {
		if x == y {
			return false
		}
		key := pack(x, y)
		if _, ok := sets[pid][key]; ok {
			return false
		}
		s := sets[pid]
		if s == nil {
			s = make(map[uint64]struct{}, 8)
			sets[pid] = s
		}
		s[key] = struct{}{}
		ad := a.adj[pid]
		if ad == nil {
			ad = make(map[int][]int32, 8)
			a.adj[pid] = ad
		}
		ad[x] = append(ad[x], int32(y))
		ad[y] = append(ad[y], int32(x))
		return true
	}

	inQ := make([]bool, prog.NumProcs())
	queue := make([]int, 0, prog.NumProcs())
	push := func(id int) {
		if !inQ[id] {
			inQ[id] = true
			queue = append(queue, id)
		}
	}
	// process introduces pairs implied by one call site given the
	// caller's current pairs.
	process := func(cs *ir.CallSite) bool {
		q := cs.Callee
		callerAdj := a.adj[cs.Caller.ID]
		callerSet := sets[cs.Caller.ID]
		changed := false
		for i, ai := range cs.Args {
			if ai.Mode != ir.FormalRef || ai.Var == nil {
				continue
			}
			fi := q.Formals[i]
			// Source 1: non-local actual still visible in callee.
			if ai.Var.Owner != q && q.Visible(ai.Var) {
				changed = add(q.ID, fi.ID, ai.Var.ID) || changed
			}
			// Source 3a: pairs of the actual propagate to the formal.
			for _, z := range callerAdj[ai.Var.ID] {
				if q.Visible(prog.Vars[z]) {
					changed = add(q.ID, fi.ID, int(z)) || changed
				}
			}
			for j := i + 1; j < len(cs.Args); j++ {
				aj := cs.Args[j]
				if aj.Mode != ir.FormalRef || aj.Var == nil {
					continue
				}
				fj := q.Formals[j]
				// Source 2: same variable twice.
				if ai.Var == aj.Var {
					changed = add(q.ID, fi.ID, fj.ID) || changed
				}
				// Source 3b: aliased actuals.
				if _, ok := callerSet[pack(ai.Var.ID, aj.Var.ID)]; ok {
					changed = add(q.ID, fi.ID, fj.ID) || changed
				}
			}
		}
		return changed
	}

	for _, p := range prog.Procs {
		push(p.ID)
	}
	for len(queue) > 0 {
		pid := queue[0]
		queue = queue[1:]
		inQ[pid] = false
		for _, cs := range prog.Procs[pid].Calls {
			if process(cs) {
				push(cs.Callee.ID)
			}
		}
		// Lexical nesting: a pair holding on entry to p also holds
		// while any procedure nested in p runs (both names stay
		// visible), so pairs flow down the nesting tree as well as
		// along call edges.
		for _, child := range prog.Procs[pid].Nested {
			changed := false
			for pr := range sets[pid] {
				if add(child.ID, int(pr>>32), int(pr&0xffffffff)) {
					changed = true
				}
			}
			if changed {
				push(child.ID)
			}
		}
	}
	// Keep each ALIAS(p) sorted, once. The packed keys sort as (X, Y)
	// pairs do, so sort them and unpack after.
	a.pairs = make([][]Pair, len(sets))
	for pid, set := range sets {
		if len(set) == 0 {
			continue
		}
		keys := make([]uint64, 0, len(set))
		for pr := range set {
			keys = append(keys, pr)
		}
		slices.Sort(keys)
		ps := make([]Pair, len(keys))
		for i, pr := range keys {
			ps[i] = Pair{X: int(pr >> 32), Y: int(pr & 0xffffffff)}
		}
		a.pairs[pid] = ps
	}
	return a
}

// factor is the reference factoring: a copy of every DMOD row at
// universe width, extended over the caller's adjacency.
func (a *referenceAnalysis) factor(dmod []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(dmod))
	for _, cs := range a.Prog.Sites {
		d := dmod[cs.ID]
		m := bitset.New(a.Prog.NumVars())
		m.UnionWith(d)
		for x, ys := range a.adj[cs.Caller.ID] {
			if d.Has(x) {
				for _, y := range ys {
					m.Add(int(y))
				}
			}
		}
		out[cs.ID] = m
	}
	return out
}

// checkAgainstReference compares Compute with the reference worklist
// on every procedure of prog, and FactorArena with the reference
// factoring on both problems' DMOD rows. A factored row must hold the
// reference's set, and must be the DMOD row itself exactly when
// aliasing adds nothing to it.
func checkAgainstReference(t *testing.T, prog *ir.Program) {
	t.Helper()
	got, want := Compute(prog), referenceCompute(prog)
	for _, p := range prog.Procs {
		if g, w := got.Pairs(p), want.pairs[p.ID]; !slices.Equal(g, w) {
			t.Fatalf("ALIAS(%s) = %v, reference %v", p.Name, g, w)
		}
	}
	for _, kind := range []core.Kind{core.Mod, core.Use} {
		res := core.Analyze(prog, kind, core.Options{})
		sets := got.FactorArena(res.DMOD, res.Arena, nil, nil)
		ref := want.factor(res.DMOD)
		for _, cs := range prog.Sites {
			d, s, r := res.DMOD[cs.ID], sets[cs.ID], ref[cs.ID]
			if !s.Equal(r) {
				t.Fatalf("%s at %s: factored %v, reference %v", kind, cs, s, r)
			}
			if (s == d) != r.Equal(d) {
				t.Fatalf("%s at %s: factored row is the DMOD row: %v; aliasing adds nothing: %v", kind, cs, s == d, r.Equal(d))
			}
		}
	}
}

// TestComputeMatchesReference pins Compute's difference propagation
// and FactorArena to the reference on 300 seeded random programs, flat
// and nested to depth 3 with 20 to 100 procedures, and on the
// benchmark's three program shapes.
func TestComputeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		cfg := workload.DefaultConfig(20+int(seed*7%81), seed)
		if seed%2 == 1 {
			cfg.MaxDepth, cfg.NestFraction = 3, 0.5
		}
		checkAgainstReference(t, workload.Random(cfg).Prune())
	}
	nested := workload.DefaultConfig(1024, 24)
	nested.MaxDepth, nested.NestFraction = 3, 0.5
	for _, cfg := range []workload.Config{workload.DefaultConfig(4096, 1), nested, workload.DefaultConfig(512, 1)} {
		t.Run(fmt.Sprintf("N=%d/depth=%d/seed=%d", cfg.Procs, cfg.MaxDepth, cfg.Seed), func(t *testing.T) {
			checkAgainstReference(t, workload.Random(cfg).Prune())
		})
	}
}

// FuzzAlias checks Compute and FactorArena against the reference on
// arbitrary MiniPL text, seeded with this file's fixtures and small
// generated programs.
func FuzzAlias(f *testing.F) {
	for _, src := range []string{
		srcGlobalFormal, srcSameActualTwice, srcTransitive, srcAliasedActuals,
		srcLocalActual, srcNestedVisibleLocal, srcRecursive, srcFactor,
		srcFactorAdds, srcFactorEmpty, srcNesting,
	} {
		f.Add(src)
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.DefaultConfig(8, seed)
		f.Add(workload.Emit(workload.Random(cfg)))
		cfg.MaxDepth, cfg.NestFraction = 3, 0.6
		f.Add(workload.Emit(workload.Random(cfg)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("input too large")
		}
		prog, err := sem.AnalyzeSource(src)
		if err != nil {
			return
		}
		checkAgainstReference(t, prog.Prune())
	})
}
