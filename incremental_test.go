package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sideeffect/internal/batch"
	"sideeffect/internal/bitset"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/ast"
	"sideeffect/internal/lint"
	"sideeffect/internal/section"
	"sideeffect/internal/workload"
)

// incrSrc has a call chain and a nested procedure, enough structure
// for every incremental path to be exercised by name.
const incrSrc = `
program incr;
global g, h;

proc leaf(ref x)
begin
  x := 1
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

func TestSessionAdditiveAndFullEdits(t *testing.T) {
	s, err := NewSession(incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Additive: a new assignment in leaf only adds local facts.
	add := strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)
	mode, err := s.Edit(add)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditIncremental {
		t.Errorf("additive edit took mode %v", mode)
	}
	fresh, err := Analyze(add)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("incremental session report differs from fresh analysis")
	}
	// Non-additive: a new call site forces full reanalysis.
	full := strings.Replace(add, "call mid(g)", "call mid(g); call leaf(h)", 1)
	mode, err = s.Edit(full)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditFull {
		t.Errorf("structural edit took mode %v", mode)
	}
	fresh, err = Analyze(full)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("full-reanalysis session report differs from fresh analysis")
	}
	if s.Source() != full {
		t.Error("session source not updated")
	}
	// A bad edit leaves the session untouched.
	if _, err := s.Edit("program broken;"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if s.Source() != full || s.Analysis().Report() != fresh.Report() {
		t.Error("failed edit changed session state")
	}
}

// TestSessionAdditiveEditReusesAliases: an additive edit leaves
// ALIAS(p) as it was, so the next analysis re-points the current alias
// solution at the new program and shares its pairs instead of
// recomputing them.
func TestSessionAdditiveEditReusesAliases(t *testing.T) {
	s, err := NewSession(incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Analysis()
	if mode, err := s.Edit(strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)); err != nil || mode != EditIncremental {
		t.Fatalf("additive edit: mode %v, err %v", mode, err)
	}
	next := s.Analysis()
	if next.Prog == prev.Prog || next.Aliases.Prog != next.Prog {
		t.Error("the alias solution is not re-pointed at the new program")
	}
	shared := 0
	for _, p := range next.Prog.Procs {
		got, was := next.Aliases.Pairs(p), prev.Aliases.Pairs(prev.Prog.Procs[p.ID])
		if len(got) != len(was) {
			t.Fatalf("ALIAS(%s): %d pairs, %d before the edit", p.Name, len(got), len(was))
		}
		if len(got) > 0 {
			if &got[0] != &was[0] {
				t.Errorf("ALIAS(%s) was recomputed, not shared", p.Name)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the program has no alias pairs to share")
	}
}

// shareSrc adds to incrSrc a procedure, other, that an edit of leaf
// does not reach, so its call site keeps its DMOD rows.
const shareSrc = `
program share;
global g, h;

proc leaf(ref x)
begin
  x := 1
end;

proc mid(ref y)
begin
  call leaf(y)
end;

proc other(ref z)
begin
  z := 2;
  write z
end;

begin
  call mid(g);
  call other(h)
end.
`

// TestSessionEditSharesFactoredSets: an additive edit keeps the
// factored MOD and USE set of the analysis it starts from at exactly
// the call sites whose DMOD row core.Update kept, and factors the rest
// anew; a full edit shares none.
func TestSessionEditSharesFactoredSets(t *testing.T) {
	s, err := NewSession(shareSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Analysis()
	edited := strings.Replace(shareSrc, "x := 1", "x := 1; h := g", 1)
	if mode, err := s.Edit(edited); err != nil || mode != EditIncremental {
		t.Fatalf("additive edit: mode %v, err %v", mode, err)
	}
	next := s.Analysis()
	for _, fam := range []struct {
		name                             string
		prevDMOD, nextDMOD, prevS, nextS []*bitset.Set
	}{
		{"MOD", prev.Mod.DMOD, next.Mod.DMOD, prev.ModSets, next.ModSets},
		{"USE", prev.Use.DMOD, next.Use.DMOD, prev.UseSets, next.UseSets},
	} {
		shared, refreshed := 0, 0
		for i := range fam.nextS {
			keptRow, keptSet := fam.nextDMOD[i] == fam.prevDMOD[i], fam.nextS[i] == fam.prevS[i]
			if keptRow != keptSet {
				t.Errorf("%s site %d: DMOD row kept %v, factored set kept %v", fam.name, i, keptRow, keptSet)
			}
			if keptSet {
				shared++
			} else {
				refreshed++
			}
		}
		if shared == 0 || refreshed == 0 {
			t.Errorf("%s: %d sites shared, %d refreshed; want some of each", fam.name, shared, refreshed)
		}
	}

	prev = next
	if mode, err := s.Edit(strings.Replace(edited, "call other(h)", "call other(h); call leaf(h)", 1)); err != nil || mode != EditFull {
		t.Fatalf("structural edit: mode %v, err %v", mode, err)
	}
	next = s.Analysis()
	for i := range prev.ModSets {
		if next.ModSets[i] == prev.ModSets[i] || next.UseSets[i] == prev.UseSets[i] {
			t.Errorf("the full edit shares site %d's factored set", i)
		}
	}
}

// TestSessionIncrementalEditProfiled: an incremental edit is an
// analysis with a profile of its own, which records the edit's work —
// the structure build, each problem's update and the derived stages,
// each once — and no full solve; the profile of the analysis it
// replaces is left as it was.
func TestSessionIncrementalEditProfiled(t *testing.T) {
	s, err := NewSession(incrSrc, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Analysis().Stages
	before := prev.Snapshot()
	if mode, err := s.Edit(strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)); err != nil || mode != EditIncremental {
		t.Fatalf("additive edit: mode %v, err %v", mode, err)
	}
	next := s.Analysis().Stages
	if next == nil || next == prev {
		t.Fatal("the incremental edit has no profile of its own")
	}
	if !reflect.DeepEqual(prev.Snapshot(), before) {
		t.Error("the incremental edit wrote the profile of the analysis it replaced")
	}
	count := map[string]int64{}
	for _, st := range next.Snapshot() {
		count[st.Name] = st.Count
	}
	for name, want := range map[string]int64{"structure": 1, "mod.update": 1, "use.update": 1, "factor.mod": 1, "mod.gmod": 0} {
		if count[name] != want {
			t.Errorf("stage %s ran %d times, want %d", name, count[name], want)
		}
	}
}

// scalarVisiblePairs enumerates the (procedure, variable) pairs whose
// addition as a local fact keeps an edit additive.
func scalarVisiblePairs(prog *ir.Program) [][2]int {
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

// TestSessionDifferentialRandomEdits is the acceptance differential:
// random additive edit sequences, of one fact or of several MOD and USE
// facts at once, applied through a Session must yield byte-identical
// reports (text and JSON) to a fresh Analyze of the edited source,
// under both the sequential and the parallel schedule, and every other
// answer a session serves must agree too (sameServedAnswers). Every
// edit, incremental or full, must leave the report of the analysis it
// replaced unchanged.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	seeds := int64(8)
	steps := 8
	if testing.Short() {
		seeds, steps = 3, 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := workload.DefaultConfig(20, seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 3
			cfg.NestFraction = 0.5
		}
		model := workload.Random(cfg).Prune()
		src := workload.Emit(model)
		sessions := map[string]*Session{}
		for name, opts := range map[string]Options{
			"sequential": {Workers: 1},
			"parallel":   {Workers: 4},
		} {
			s, err := NewSession(src, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sessions[name] = s
		}
		pairs := scalarVisiblePairs(model)
		r := rand.New(rand.NewSource(seed*17 + 1))
		for step := 0; step < steps; step++ {
			// Every other edit adds several facts at once, MOD and USE
			// mixed.
			facts := 1
			if step%2 == 1 {
				facts = 2 + r.Intn(3)
			}
			for k := 0; k < facts; k++ {
				pick := pairs[r.Intn(len(pairs))]
				p, v := model.Procs[pick[0]], model.Vars[pick[1]]
				if r.Intn(2) == 0 {
					p.IMOD.Add(v.ID)
				} else {
					p.IUSE.Add(v.ID)
				}
			}
			newSrc := workload.Emit(model)
			fresh, err := Analyze(newSrc)
			if err != nil {
				t.Fatalf("seed %d step %d: fresh analyze: %v", seed, step, err)
			}
			wantText := fresh.Report()
			wantJSON, err := fresh.JSONReport().Render()
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range sessions {
				prev, prevReport := s.Analysis(), s.Analysis().Report()
				mode, err := s.Edit(newSrc)
				if err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, name, err)
				}
				if mode != EditIncremental {
					t.Fatalf("seed %d step %d %s: additive edit took mode %v", seed, step, name, mode)
				}
				if prev.Report() != prevReport {
					t.Fatalf("seed %d step %d %s: incremental edit wrote the analysis it replaced", seed, step, name)
				}
				a := s.Analysis()
				if got := a.Report(); got != wantText {
					t.Fatalf("seed %d step %d %s: session text report diverged from fresh analysis", seed, step, name)
				}
				got, err := a.JSONReport().Render()
				if err != nil {
					t.Fatal(err)
				}
				if got != wantJSON {
					t.Fatalf("seed %d step %d %s: session JSON report diverged from fresh analysis", seed, step, name)
				}
				sameServedAnswers(t, fmt.Sprintf("seed %d step %d %s", seed, step, name), a, fresh)
			}
		}
		// Replacing the program wholesale must fall back to full
		// reanalysis and still match.
		other := workload.Emit(workload.Random(workload.DefaultConfig(12, seed+1000)).Prune())
		fresh, err := Analyze(other)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range sessions {
			prev, prevReport := s.Analysis(), s.Analysis().Report()
			mode, err := s.Edit(other)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if mode != EditFull {
				t.Errorf("seed %d %s: program replacement took mode %v", seed, name, mode)
			}
			if prev.Report() != prevReport {
				t.Errorf("seed %d %s: full edit wrote the analysis it replaced", seed, name)
			}
			if s.Analysis().Report() != fresh.Report() {
				t.Errorf("seed %d %s: post-replacement report diverged", seed, name)
			}
			sameServedAnswers(t, fmt.Sprintf("seed %d %s replacement", seed, name), s.Analysis(), fresh)
		}
	}
}

// sameServedAnswers fails unless a serves what fresh serves beyond the
// two reports, which render DMOD factored anew and no SecUse: the
// alias-factored per-call-site sets, set by set; CallSites(); the MOD
// and USE sections at every call site and of every array formal; and
// the text of a zero-config Lint run.
func sameServedAnswers(t *testing.T, where string, a, fresh *Analysis) {
	t.Helper()
	for _, fam := range []struct {
		name      string
		got, want []*bitset.Set
	}{{"ModSets", a.ModSets, fresh.ModSets}, {"UseSets", a.UseSets, fresh.UseSets}} {
		if len(fam.got) != len(fam.want) {
			t.Fatalf("%s: %d %s, fresh analysis has %d", where, len(fam.got), fam.name, len(fam.want))
		}
		for i := range fam.got {
			if !fam.got[i].Equal(fam.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, fresh analysis has %v", where, fam.name, i, fam.got[i], fam.want[i])
			}
		}
	}
	if got, want := a.CallSites(), fresh.CallSites(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CallSites() diverged from fresh analysis", where)
	}
	for _, sec := range []struct {
		name      string
		got, want *section.Result
	}{{"SecMod", a.SecMod, fresh.SecMod}, {"SecUse", a.SecUse, fresh.SecUse}} {
		for _, cs := range a.Prog.Sites {
			if got, want := sec.got.AtCall(cs), sec.want.AtCall(fresh.Prog.Sites[cs.ID]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s at site %d = %v, fresh analysis has %v", where, sec.name, cs.ID, got, want)
			}
		}
		for _, v := range a.Prog.Vars {
			if v.IsFormal() && v.Rank() > 0 {
				if got, want := sec.got.FormalOf(v), sec.want.FormalOf(fresh.Prog.Vars[v.ID]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s of formal %s = %v, fresh analysis has %v", where, sec.name, v, got, want)
				}
			}
		}
	}
	lintText := func(a *Analysis) string {
		rep, err := a.Lint(lint.Config{})
		if err != nil {
			t.Fatalf("%s: lint: %v", where, err)
		}
		return lint.Text([]lint.FileReport{{File: "edit.mpl", Report: rep}})
	}
	if lintText(a) != lintText(fresh) {
		t.Fatalf("%s: lint diverged from fresh analysis", where)
	}
}

// sectionSrc has symbolic subscripts, shaped like
// testdata/lint/se006_loops.mpl: r, k and i name section coordinates,
// m names none, and bump, which row calls, modifies neither yet.
const sectionSrc = `
program loops;
global grid[8, 8];
global hist[8];
global n, i, k, m;
proc relaxcol(ref col[*], val len)
  var r;
begin
  for r := 1 to len do col[r] := col[r] + 1 end
end;
proc bump()
begin
  write n
end;
proc scatter(ref h[*], val v)
  var slot;
begin
  slot := v - v / 2 * 2;
  h[slot + 1] := h[slot + 1] + v
end;
proc row(ref a[*, *])
begin
  a[k, 1] := 0;
  call bump()
end;
begin
  for i := 1 to n do
    call relaxcol(grid[*, i], 8)
  end;
  call row(grid);
  for i := 1 to n do
    call scatter(hist, i)
  end
end.
`

// TestSessionEditKeepsSections: an additive edit keeps both section
// solutions when no GMOD row it grew gained a variable that a symbolic
// coordinate can name, and solves them again when one did. Here bump
// first modifies m, which no subscript names, so the edit's profile has
// no sections stage; then bump modifies k, which row's a[k, 1] names,
// so row's section of grid widens from grid[k, 1] to grid[*, 1] and
// only a fresh solve gets it right.
func TestSessionEditKeepsSections(t *testing.T) {
	s, err := NewSession(sectionSrc, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	sections := func() int {
		n := 0
		for _, st := range s.Analysis().Stages.Snapshot() {
			if strings.HasPrefix(st.Name, "sections.") {
				n++
			}
		}
		return n
	}
	src := sectionSrc
	for _, step := range []struct {
		stmt string
		keep bool
	}{{"m := 1", true}, {"k := 1", false}} {
		src = strings.Replace(src, "  write n", "  "+step.stmt+";\n  write n", 1)
		prev := s.Analysis()
		mode, err := s.Edit(src)
		if err != nil || mode != EditIncremental {
			t.Fatalf("%s: mode %v, err %v", step.stmt, mode, err)
		}
		a := s.Analysis()
		if kept := sections() == 0; kept != step.keep {
			t.Errorf("%s: sections kept %v, want %v", step.stmt, kept, step.keep)
		}
		if step.keep && (a.SecMod.Prog != a.Prog || a.SecUse.Prog != a.Prog) {
			t.Errorf("%s: the kept sections are not re-pointed at the new program", step.stmt)
		}
		if prev.SecMod.Prog != prev.Prog {
			t.Errorf("%s: the edit re-pointed the previous analysis's sections", step.stmt)
		}
		fresh, err := Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report() != fresh.Report() {
			t.Fatalf("%s: session report differs from a fresh analysis", step.stmt)
		}
		sameServedAnswers(t, step.stmt, a, fresh)
	}
}

// TestSessionEditFailureKeepsTree: a failed edit — a parse error, a
// sem error, a done context, an injected fault, a panic, or a panic on
// an item the parse takes from the session's tree — leaves the
// session's source, analysis and tree exactly as they were, and the
// next edit still takes every unchanged item from that tree.
func TestSessionEditFailureKeepsTree(t *testing.T) {
	s, err := NewSession(shareSrc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(shareSrc, "x := 1", "x := 1; h := g", 1)
	if _, err := s.Edit(edited); err != nil {
		t.Fatal(err)
	}
	tree, src, a := s.tree, s.Source(), s.Analysis()
	procs := append([]*ast.ProcDecl(nil), tree.Prog.Procs...)
	items := tree.Items()
	unchanged := func(what string) {
		t.Helper()
		if s.tree != tree || s.Source() != src || s.Analysis() != a {
			t.Fatalf("%s: the failed edit changed the session", what)
		}
		if tree.Items() != items || !reflect.DeepEqual(tree.Prog.Procs, procs) {
			t.Fatalf("%s: the failed edit wrote the session's tree", what)
		}
	}
	additive := strings.Replace(edited, "z := 2", "z := 2; g := 1", 1)

	if _, err := s.Edit(strings.Replace(additive, "begin\n  call mid", "begin\n  call mid(", 1)); err == nil {
		t.Fatal("parse error accepted")
	}
	unchanged("parse error")
	if _, err := s.Edit(strings.Replace(additive, "call mid(g)", "call nosuch(g)", 1)); err == nil {
		t.Fatal("sem error accepted")
	}
	unchanged("sem error")
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.EditContext(done, additive); !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: %v", err)
	}
	unchanged("done context")
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		s.opts.Faults = faultinject.New(faultinject.Config{Rate: 1, Seed: 1, Kinds: []faultinject.Kind{kind}})
		if _, err := s.Edit(additive); err == nil {
			t.Fatalf("%v fault: edit succeeded", kind)
		}
		s.opts.Faults = nil
		unchanged(kind.String() + " fault")
	}
	// A nil statement in mid's body makes sem panic on the item that
	// the edit of other takes from the tree.
	mid := procs[1]
	if mid.Name != "mid" {
		t.Fatalf("procedure 1 is %s", mid.Name)
	}
	body := mid.Body.Stmts
	mid.Body.Stmts = append(body[:len(body):len(body)], nil)
	_, err = s.Edit(additive)
	var pe *batch.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic on a taken item: err %v, want a captured panic", err)
	}
	unchanged("panic on a taken item")
	mid.Body.Stmts = body

	mode, err := s.Edit(additive)
	if err != nil || mode != EditIncremental {
		t.Fatalf("edit after the failures: mode %v, err %v", mode, err)
	}
	for i, d := range s.tree.Prog.Procs {
		if taken := d == procs[i]; taken != (d.Name != "other") {
			t.Errorf("procedure %s taken from the tree: %v", d.Name, taken)
		}
	}
	fresh, err := Analyze(additive)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Fatal("edit after the failures differs from a fresh analysis")
	}
}
