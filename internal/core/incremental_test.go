package core_test

import (
	"math/rand"
	"testing"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

// visiblePairs enumerates the (procedure, variable) pairs legal as new
// local facts of an additive edit.
func visiblePairs(prog *ir.Program) [][2]int {
	var out [][2]int
	for _, p := range prog.Procs {
		for _, v := range prog.Vars {
			if p.Visible(v) && v.Rank() == 0 {
				out = append(out, [2]int{p.ID, v.ID})
			}
		}
	}
	return out
}

// addFacts draws a batch of 1–4 new facts, MOD and USE mixed, and adds
// each to prog's local fact sets, as a reparsed source carries them.
// It returns the batch per kind.
func addFacts(r *rand.Rand, prog *ir.Program, pairs [][2]int) map[core.Kind][]ir.FactDelta {
	adds := map[core.Kind][]ir.FactDelta{}
	for k := 1 + r.Intn(4); k > 0; k-- {
		pick := pairs[r.Intn(len(pairs))]
		kind := core.Kind(r.Intn(2))
		if p := prog.Procs[pick[0]]; kind == core.Mod {
			p.IMOD.Add(pick[1])
		} else {
			p.IUSE.Add(pick[1])
		}
		adds[kind] = append(adds[kind], ir.FactDelta{Proc: pick[0], Var: pick[1]})
	}
	return adds
}

// update runs core.Update of cur to prog, whose facts already carry
// adds.
func update(t *testing.T, cur *core.Result, prog *ir.Program, adds ...ir.FactDelta) *core.Result {
	t.Helper()
	next, err := core.Update(cur, prog, binding.Build(prog), callgraph.Build(prog), adds)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// assertSameResult compares every set of an incrementally-maintained
// result against a freshly recomputed one.
func assertSameResult(t *testing.T, tag string, inc, full *core.Result) {
	t.Helper()
	prog := inc.Prog
	for _, p := range prog.Procs {
		if !inc.Facts.I[p.ID].Equal(full.Facts.I[p.ID]) {
			t.Errorf("%s: I(%s): inc %v, full %v", tag, p.Name,
				names(prog, inc.Facts.I[p.ID]), names(prog, full.Facts.I[p.ID]))
		}
		if !inc.IMODPlus[p.ID].Equal(full.IMODPlus[p.ID]) {
			t.Errorf("%s: IMOD+(%s): inc %v, full %v", tag, p.Name,
				names(prog, inc.IMODPlus[p.ID]), names(prog, full.IMODPlus[p.ID]))
		}
		if !inc.GMOD[p.ID].Equal(full.GMOD[p.ID]) {
			t.Errorf("%s: GMOD(%s): inc %v, full %v", tag, p.Name,
				names(prog, inc.GMOD[p.ID]), names(prog, full.GMOD[p.ID]))
		}
	}
	for n := range inc.RMOD.Node {
		if inc.RMOD.Node[n] != full.RMOD.Node[n] {
			t.Errorf("%s: RMOD node %d: inc %v, full %v", tag, n, inc.RMOD.Node[n], full.RMOD.Node[n])
		}
	}
	for _, cs := range prog.Sites {
		if !inc.DMOD[cs.ID].Equal(full.DMOD[cs.ID]) {
			t.Errorf("%s: DMOD(%s): inc %v, full %v", tag, cs,
				names(prog, inc.DMOD[cs.ID]), names(prog, full.DMOD[cs.ID]))
		}
	}
}

// randomProgram is the corpus of the update tests: flat programs for
// even seeds, nesting depth 3 for odd ones.
func randomProgram(seed int64) *ir.Program {
	cfg := workload.DefaultConfig(25, seed)
	if seed%2 == 1 {
		cfg.MaxDepth = 3
		cfg.NestFraction = 0.5
	}
	return workload.Random(cfg).Prune()
}

// TestIncrementalMatchesFullRecompute: a chain of updates, each a batch
// of 1–4 facts for MOD and USE, equals a full recompute of the edited
// program after every batch.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		prog := randomProgram(seed)
		cur := map[core.Kind]*core.Result{
			core.Mod: core.Analyze(prog, core.Mod, core.Options{}),
			core.Use: core.Analyze(prog, core.Use, core.Options{}),
		}
		pairs := visiblePairs(prog)
		r := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 12; step++ {
			adds := addFacts(r, prog, pairs)
			for kind, res := range cur {
				next := update(t, res, prog, adds[kind]...)
				assertSameResult(t, "seed/step", next, core.Analyze(prog, kind, core.Options{}))
				if t.Failed() {
					t.Fatalf("divergence at seed %d step %d (kind %v, facts %v)", seed, step, kind, adds[kind])
				}
				cur[kind] = next
			}
		}
	}
}

// TestUpdateWritesNothingGiven: core.Update leaves every row of the
// result it starts from, its RMOD solution, and the local facts of both
// programs exactly as they were.
func TestUpdateWritesNothingGiven(t *testing.T) {
	type snapshot struct {
		rows [][]*bitset.Set
		node []bool
	}
	rowsOf := func(res *core.Result) [][]*bitset.Set {
		return [][]*bitset.Set{res.Facts.I, res.IMODPlus, res.GMOD, res.DMOD}
	}
	factsOf := func(prog *ir.Program) []*bitset.Set {
		var out []*bitset.Set
		for _, p := range prog.Procs {
			out = append(out, p.IMOD, p.IUSE)
		}
		return out
	}
	take := func(res *core.Result, progs ...*ir.Program) snapshot {
		var s snapshot
		for _, fam := range append(rowsOf(res), factsOf(progs[0]), factsOf(progs[1])) {
			c := make([]*bitset.Set, len(fam))
			for i, row := range fam {
				c[i] = row.Clone()
			}
			s.rows = append(s.rows, c)
		}
		s.node = append(s.node, res.RMOD.Node...)
		return s
	}
	grew := 0
	for seed := int64(0); seed < 12; seed++ {
		// Two copies of one program: the edit's facts go into the second.
		prog, edited := randomProgram(seed), randomProgram(seed)
		pairs := visiblePairs(edited)
		r := rand.New(rand.NewSource(seed*7 + 3))
		adds := addFacts(r, edited, pairs)
		beta, cg := binding.Build(edited), callgraph.Build(edited)
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			cur := core.Analyze(prog, kind, core.Options{})
			before := take(cur, prog, edited)
			next, err := core.Update(cur, edited, beta, cg, adds[kind])
			if err != nil {
				t.Fatal(err)
			}
			after := take(cur, prog, edited)
			for f := range before.rows {
				for i := range before.rows[f] {
					if !before.rows[f][i].Equal(after.rows[f][i]) {
						t.Fatalf("seed %d kind %v: update wrote row %d of family %d it was given", seed, kind, i, f)
					}
				}
			}
			for n := range before.node {
				if before.node[n] != after.node[n] {
					t.Fatalf("seed %d kind %v: update wrote RMOD node %d it was given", seed, kind, n)
				}
			}
			assertSameResult(t, "written beside", next, core.Analyze(edited, kind, core.Options{}))
			for i := range next.GMOD {
				if next.GMOD[i] != cur.GMOD[i] {
					grew++
				}
			}
		}
	}
	if grew == 0 {
		t.Fatal("no update grew a GMOD row; the corpus tests nothing")
	}
}

func TestIncrementalRMODChain(t *testing.T) {
	// Chain(n) under the Use problem, which starts with no seeds:
	// turning on the leaf's formal must flip the whole chain and update
	// main's IMOD+ through the binding of g.
	prog := workload.Chain(10)
	leaf := prog.Proc("p9")
	res := core.Analyze(prog, core.Use, core.Options{})
	for _, p := range prog.Procs {
		for _, f := range p.Formals {
			if res.RMOD.Of(f) {
				t.Fatalf("unexpected RUSE seed on %s", f)
			}
		}
	}
	f := leaf.Formals[0]
	leaf.IUSE.Add(f.ID)
	next := update(t, res, prog, ir.FactDelta{Proc: leaf.ID, Var: f.ID})
	for i := 0; i < 10; i++ {
		f := prog.Proc("p" + itoa(i)).Formals[0]
		if !next.RMOD.Of(f) {
			t.Errorf("RUSE(%s) still false after incremental update", f)
		}
		if res.RMOD.Of(f) {
			t.Errorf("RUSE(%s) turned true in the result the update started from", f)
		}
	}
	// main's set now includes g through the binding, in a row of its
	// own.
	main := prog.Main.ID
	if !next.GMOD[main].Has(prog.Var("g").ID) || next.GMOD[main] == res.GMOD[main] {
		t.Error("GUSE(main) missing g, or not copied")
	}
	assertSameResult(t, "chain", next, core.Analyze(prog, core.Use, core.Options{}))
}

func TestIncrementalNestedLocalStopsAtOwner(t *testing.T) {
	prog := workload.NestedTower(3)
	res := core.Analyze(prog, core.Mod, core.Options{})
	// n2 newly modifies n1's local v: must reach GMOD(n1) but not
	// GMOD(n0) or main.
	n2 := prog.Proc("n2")
	v1 := prog.Var("n1.v")
	n2.IMOD.Add(v1.ID)
	next := update(t, res, prog, ir.FactDelta{Proc: n2.ID, Var: v1.ID})
	assertSameResult(t, "tower", next, core.Analyze(prog, core.Mod, core.Options{}))
	if next.GMOD[prog.Main.ID].Has(v1.ID) {
		t.Error("nested local leaked into GMOD(main)")
	}
	if !next.GMOD[prog.Proc("n1").ID].Has(v1.ID) {
		t.Error("GMOD(n1) missing its own modified local")
	}
}

func TestIncrementalInvisibleVarRejected(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	// bot's formal c is not visible in top.
	bad := ir.FactDelta{Proc: prog.Proc("top").ID, Var: prog.Var("bot.c").ID}
	if _, err := core.Update(res, prog, binding.Build(prog), callgraph.Build(prog), []ir.FactDelta{bad}); err == nil {
		t.Error("invisible variable accepted")
	}
}

// TestIncrementalIdempotent: an update whose facts are all present
// already copies no row, so every row of its result is cur's own.
func TestIncrementalIdempotent(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	bot, g := prog.Proc("bot"), prog.Var("g")
	bot.IMOD.Add(g.ID)
	fact := ir.FactDelta{Proc: bot.ID, Var: g.ID}
	cur := update(t, res, prog, fact)
	next := update(t, cur, prog, fact, fact)
	for f, pair := range [][2][]*bitset.Set{
		{cur.Facts.I, next.Facts.I}, {cur.IMODPlus, next.IMODPlus},
		{cur.GMOD, next.GMOD}, {cur.DMOD, next.DMOD},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Errorf("re-adding a present fact copied row %d of family %d", i, f)
			}
		}
	}
}
