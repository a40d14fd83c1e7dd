package core_test

import (
	"testing"

	"sideeffect/internal/baseline"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/workload"
)

func names(prog *ir.Program, s *bitset.Set) map[string]bool {
	out := map[string]bool{}
	s.ForEach(func(id int) { out[prog.Vars[id].String()] = true })
	return out
}

func wantSet(t *testing.T, prog *ir.Program, got *bitset.Set, want ...string) {
	t.Helper()
	g := names(prog, got)
	if len(g) != len(want) {
		t.Errorf("set = %v, want %v", g, want)
		return
	}
	for _, w := range want {
		if !g[w] {
			t.Errorf("set = %v, missing %q", g, w)
		}
	}
}

func TestFactsFlat(t *testing.T) {
	prog := workload.PaperExample()
	f := core.ComputeFacts(prog, core.Mod)
	wantSet(t, prog, f.I[prog.Proc("top").ID], "h")
	wantSet(t, prog, f.I[prog.Proc("bot").ID], "bot.c")
	if !f.SeedOf(prog.Var("bot.c")) {
		t.Error("SeedOf(bot.c) = false")
	}
	if f.SeedOf(prog.Var("top.a")) {
		t.Error("SeedOf(top.a) = true")
	}
	fu := core.ComputeFacts(prog, core.Use)
	wantSet(t, prog, fu.I[prog.Proc("bot").ID], "g")
}

func TestFactsNestedFold(t *testing.T) {
	prog := workload.NestedTower(3)
	f := core.ComputeFacts(prog, core.Mod)
	// See the NestedTower doc: the deepest procedure modifies g and
	// every enclosing local; folding strips exactly one local per
	// level on the way up.
	wantSet(t, prog, f.I[prog.Proc("n3").ID], "g", "n0.v", "n1.v", "n2.v")
	wantSet(t, prog, f.I[prog.Proc("n2").ID], "g", "n0.v", "n1.v", "n2.v")
	wantSet(t, prog, f.I[prog.Proc("n1").ID], "g", "n0.v", "n1.v")
	wantSet(t, prog, f.I[prog.Proc("n0").ID], "g", "n0.v")
	wantSet(t, prog, f.I[prog.Main.ID])
}

func TestRMODPaperExample(t *testing.T) {
	prog := workload.PaperExample()
	f := core.ComputeFacts(prog, core.Mod)
	beta := binding.Build(prog)
	r := core.SolveRMOD(beta, f)
	for _, n := range []string{"top.a", "mid.b", "bot.c"} {
		if !r.Of(prog.Var(n)) {
			t.Errorf("RMOD(%s) = false, want true", n)
		}
	}
	// β has the SCC {a,b} plus {c}: 2 components.
	if r.Stats.Components != 2 {
		t.Errorf("components = %d, want 2", r.Stats.Components)
	}
	// USE side: nothing reads through the formals.
	fu := core.ComputeFacts(prog, core.Use)
	ru := core.SolveRMOD(beta, fu)
	for _, n := range []string{"top.a", "mid.b", "bot.c"} {
		if ru.Of(prog.Var(n)) {
			t.Errorf("RUSE(%s) = true, want false", n)
		}
	}
}

func TestRMODChainPropagation(t *testing.T) {
	prog := workload.Chain(50)
	f := core.ComputeFacts(prog, core.Mod)
	beta := binding.Build(prog)
	r := core.SolveRMOD(beta, f)
	for i := 0; i < 50; i++ {
		v := prog.Procs[i+1].Formals[0] // Procs[0] is main
		if !r.Of(v) {
			t.Fatalf("RMOD(%s) = false", v)
		}
	}
}

func TestRMODCycle(t *testing.T) {
	prog := workload.Cycle(20)
	f := core.ComputeFacts(prog, core.Mod)
	beta := binding.Build(prog)
	r := core.SolveRMOD(beta, f)
	// One seed inside the cycle makes the entire cycle true.
	for _, v := range beta.Nodes {
		if !r.Of(v) {
			t.Fatalf("RMOD(%s) = false inside cycle", v)
		}
	}
	if r.Stats.Components != 1 {
		t.Errorf("cycle components = %d, want 1", r.Stats.Components)
	}
}

func TestRMODNoSeeds(t *testing.T) {
	prog := workload.Chain(5)
	// Use problem: no formal is read in Chain.
	f := core.ComputeFacts(prog, core.Use)
	beta := binding.Build(prog)
	r := core.SolveRMOD(beta, f)
	for _, v := range beta.Nodes {
		if r.Of(v) {
			t.Errorf("RUSE(%s) = true", v)
		}
	}
	// Of on a non-formal is false, not a panic.
	if r.Of(prog.Var("g")) {
		t.Error("Of(global) = true")
	}
}

func TestIMODPlusPaperExample(t *testing.T) {
	prog := workload.PaperExample()
	f := core.ComputeFacts(prog, core.Mod)
	beta := binding.Build(prog)
	r := core.SolveRMOD(beta, f)
	ip := core.ComputeIMODPlus(f, r)
	wantSet(t, prog, ip[prog.Proc("top").ID], "h", "top.a")
	wantSet(t, prog, ip[prog.Proc("mid").ID], "mid.b")
	wantSet(t, prog, ip[prog.Proc("bot").ID], "bot.c")
	wantSet(t, prog, ip[prog.Main.ID], "g")
}

func TestGMODPaperExample(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	wantSet(t, prog, res.GMOD[prog.Proc("bot").ID], "bot.c")
	wantSet(t, prog, res.GMOD[prog.Proc("mid").ID], "mid.b", "h")
	wantSet(t, prog, res.GMOD[prog.Proc("top").ID], "top.a", "h")
	wantSet(t, prog, res.GMOD[prog.Main.ID], "g", "h")
	// DMOD at main's call site: b_e(GMOD(top)) = {h} plus the actual g
	// bound to a ∈ RMOD(top).
	var mainSite *ir.CallSite
	for _, cs := range prog.Sites {
		if cs.Caller.IsMain {
			mainSite = cs
		}
	}
	wantSet(t, prog, res.DMOD[mainSite.ID], "g", "h")
}

func TestGMODFanout(t *testing.T) {
	prog := workload.Fanout(9)
	res := core.Analyze(prog, core.Mod, core.Options{})
	// main reaches every leaf: GMOD(main) = all g_i plus shared.
	m := names(prog, res.GMOD[prog.Main.ID])
	if !m["shared"] {
		t.Error("GMOD(main) missing shared")
	}
	for i := 0; i < 9; i++ {
		if !m["g"+itoa(i)] {
			t.Errorf("GMOD(main) missing g%d", i)
		}
	}
	// Leaves only know their own effects.
	p4 := names(prog, res.GMOD[prog.Proc("p4").ID])
	if p4["g5"] || !p4["g4"] {
		t.Errorf("GMOD(p4) = %v", p4)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestGMODNestedTower(t *testing.T) {
	prog := workload.NestedTower(3)
	res := core.Analyze(prog, core.Mod, core.Options{})
	wantSet(t, prog, res.GMOD[prog.Main.ID], "g")
	wantSet(t, prog, res.GMOD[prog.Proc("n0").ID], "g", "n0.v")
	wantSet(t, prog, res.GMOD[prog.Proc("n1").ID], "g", "n0.v", "n1.v")
	wantSet(t, prog, res.GMOD[prog.Proc("n2").ID], "g", "n0.v", "n1.v", "n2.v")
	wantSet(t, prog, res.GMOD[prog.Proc("n3").ID], "g", "n0.v", "n1.v", "n2.v")
	// One findgmod run per level 0..3.
	if len(res.GMODStats) != 4 {
		t.Errorf("level runs = %d, want 4", len(res.GMODStats))
	}
}

// TestGMODSiblingCallAtDeepestLevel: a call between two procedures at
// the deepest nesting level carries their parent's local only through
// the last level's pass, a shape the random corpora never build. q
// touches nothing itself, so p.v reaches GMOD(q) only through r.
func TestGMODSiblingCallAtDeepestLevel(t *testing.T) {
	b := ir.NewBuilder("siblings")
	p := b.Proc("p", nil)
	v := b.Local(p, "v")
	q := b.Proc("q", p)
	r := b.Proc("r", p)
	b.Mod(r, v)
	b.Call(b.Main(), p, nil, token.Pos{})
	b.Call(p, q, nil, token.Pos{})
	b.Call(q, r, nil, token.Pos{})
	prog := b.MustFinish()
	res := core.Analyze(prog, core.Mod, core.Options{})
	wantSet(t, prog, res.GMOD[prog.Main.ID])
	wantSet(t, prog, res.GMOD[p.ID], "p.v")
	wantSet(t, prog, res.GMOD[q.ID], "p.v")
	wantSet(t, prog, res.GMOD[r.ID], "p.v")
}

// TestGMODTheorem2Counts checks the operation-count bound of Theorem
// 2: line-17 unions at most once per edge, line-22 unions at most once
// per node, per level.
func TestGMODTheorem2Counts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		prog := workload.Random(workload.DefaultConfig(60, seed))
		res := core.Analyze(prog, core.Mod, core.Options{})
		st := res.GMODStats[0]
		if st.EdgeUnions > prog.NumSites() {
			t.Errorf("seed %d: edge unions %d > E=%d", seed, st.EdgeUnions, prog.NumSites())
		}
		if st.NodeUnions > prog.NumProcs() {
			t.Errorf("seed %d: node unions %d > N=%d", seed, st.NodeUnions, prog.NumProcs())
		}
		if st.Visits != prog.NumProcs() {
			t.Errorf("seed %d: visits %d != N=%d", seed, st.Visits, prog.NumProcs())
		}
	}
}

// TestRMODLinearWork checks Figure 1's bound: boolean steps are
// O(Nβ + Eβ).
func TestRMODLinearWork(t *testing.T) {
	for _, seed := range []int64{10, 11, 12} {
		prog := workload.Random(workload.DefaultConfig(80, seed))
		f := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		r := core.SolveRMOD(beta, f)
		bound := 2*len(beta.Nodes) + beta.G.NumEdges() + 1
		if r.Stats.BoolSteps > bound {
			t.Errorf("seed %d: bool steps %d > 2Nβ+Eβ = %d", seed, r.Stats.BoolSteps, bound)
		}
	}
}

// --- Cross-checks against the independent oracles on random programs.

func checkAgainstOracles(t *testing.T, prog *ir.Program, kind core.Kind, tag string) {
	t.Helper()
	res := core.Analyze(prog, kind, core.Options{})
	prog = res.Prog
	facts := res.Facts

	// RMOD vs reachability oracle.
	oracle := baseline.RMODReachability(res.Beta, facts)
	for n, v := range res.Beta.Nodes {
		if res.RMOD.Node[n] != oracle[n] {
			t.Errorf("%s: RMOD(%s) = %v, oracle %v", tag, v, res.RMOD.Node[n], oracle[n])
		}
	}
	// RMOD vs swift iterative.
	sw := baseline.SwiftDecomposed(prog, facts)
	for _, v := range res.Beta.Nodes {
		if res.RMOD.Of(v) != sw.RMODOf(v) {
			t.Errorf("%s: RMOD(%s) = %v, swift %v", tag, v, res.RMOD.Of(v), sw.RMODOf(v))
		}
	}
	// GMOD vs the per-level reachability oracle.
	gOracle := baseline.GMODReachability(prog, res.IMODPlus, facts)
	for _, p := range prog.Procs {
		if !res.GMOD[p.ID].Equal(gOracle[p.ID]) {
			t.Errorf("%s: GMOD(%s) = %v, oracle %v", tag, p.Name,
				names(prog, res.GMOD[p.ID]), names(prog, gOracle[p.ID]))
		}
	}
	// GMOD vs Banning's direct equation (1) fixpoint.
	ban := baseline.BanningIterative(prog, facts)
	for _, p := range prog.Procs {
		if !res.GMOD[p.ID].Equal(ban.GMOD[p.ID]) {
			t.Errorf("%s: GMOD(%s) = %v, banning %v", tag, p.Name,
				names(prog, res.GMOD[p.ID]), names(prog, ban.GMOD[p.ID]))
		}
	}
	// GMOD vs the swift-style iterative equation (4) fixpoint.
	for _, p := range prog.Procs {
		if !res.GMOD[p.ID].Equal(sw.GMOD[p.ID]) {
			t.Errorf("%s: GMOD(%s) = %v, swift %v", tag, p.Name,
				names(prog, res.GMOD[p.ID]), names(prog, sw.GMOD[p.ID]))
		}
	}
}

func TestAgreementFlatRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := workload.DefaultConfig(40, seed)
		prog := workload.Random(cfg)
		checkAgainstOracles(t, prog, core.Mod, "flat/mod")
		checkAgainstOracles(t, prog, core.Use, "flat/use")
	}
}

func TestAgreementNestedRandom(t *testing.T) {
	for seed := int64(100); seed < 125; seed++ {
		cfg := workload.DefaultConfig(40, seed)
		cfg.MaxDepth = 4
		cfg.NestFraction = 0.6
		prog := workload.Random(cfg)
		// The nesting reachability argument assumes pruned programs.
		checkAgainstOracles(t, prog.Prune(), core.Mod, "nested/mod")
		checkAgainstOracles(t, prog.Prune(), core.Use, "nested/use")
	}
}

func TestAgreementStructuredFamilies(t *testing.T) {
	progs := map[string]*ir.Program{
		"chain":   workload.Chain(30),
		"cycle":   workload.Cycle(17),
		"fanout":  workload.Fanout(12),
		"tower":   workload.NestedTower(5),
		"divide":  workload.DivideConquer(),
		"example": workload.PaperExample(),
	}
	for tag, prog := range progs {
		checkAgainstOracles(t, prog, core.Mod, tag)
		checkAgainstOracles(t, prog, core.Use, tag)
	}
}

// --- End-to-end from MiniPL source.

func TestAnalyzeFromSource(t *testing.T) {
	prog, err := sem.AnalyzeSource(`
program endtoend;
global g, h, unused;
proc setg() begin g := 1 end;
proc seth(ref out)
begin
  out := g;
  call setg()
end;
begin
  call seth(h)
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Analyze(prog, core.Mod, core.Options{})
	wantSet(t, prog, res.GMOD[prog.Proc("setg").ID], "g")
	wantSet(t, prog, res.GMOD[prog.Proc("seth").ID], "g", "seth.out")
	wantSet(t, prog, res.GMOD[prog.Main.ID], "g", "h")
	use := core.Analyze(prog, core.Use, core.Options{})
	wantSet(t, prog, use.GMOD[prog.Proc("seth").ID], "g")
	// DUSE of main's call: seth reads g.
	wantSet(t, prog, use.DMOD[prog.Sites[len(prog.Sites)-1].ID], "g")
}

// TestAnalyzePruneOption: GMOD(main) ignores a dead modifier whether
// or not the program was pruned (the paper's Section 3.3 clean-up,
// which callers apply with ir.Program.Prune before solving).
func TestAnalyzePruneOption(t *testing.T) {
	b := ir.NewBuilder("p")
	g := b.Global("g")
	dead := b.Proc("dead", nil)
	b.Mod(dead, g)
	prog := b.MustFinish()
	res := core.Analyze(prog.Prune(), core.Mod, core.Options{})
	if res.Prog.Proc("dead") != nil {
		t.Error("Prune kept the dead procedure")
	}
	if !res.GMOD[res.Prog.Main.ID].Empty() {
		t.Error("GMOD(main) nonempty after pruning dead modifier")
	}
	// Without pruning, dead still never pollutes main (no call chain).
	res2 := core.Analyze(prog, core.Mod, core.Options{})
	if !res2.GMOD[res2.Prog.Main.ID].Empty() {
		t.Error("GMOD(main) nonempty without call chain")
	}
}

func TestValFormalDoesNotEscape(t *testing.T) {
	prog, err := sem.AnalyzeSource(`
program valtest;
global g;
proc inc(val n) begin n := n + 1 end;
begin call inc(g) end.
`)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Analyze(prog, core.Mod, core.Options{})
	// Modifying the val formal must not report g as modified.
	if res.GMOD[prog.Main.ID].Has(prog.Var("g").ID) {
		t.Error("val-parameter modification escaped to caller")
	}
	wantSet(t, prog, res.DMOD[prog.Sites[0].ID])
	// But the USE side must see g (argument evaluation).
	use := core.Analyze(prog, core.Use, core.Options{})
	if !use.DMOD[prog.Sites[0].ID].Has(prog.Var("g").ID) {
		t.Error("DUSE missing val-argument evaluation")
	}
}

func TestKindString(t *testing.T) {
	if core.Mod.String() != "MOD" || core.Use.String() != "USE" {
		t.Error("Kind.String wrong")
	}
}
