package sideeffect

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// The reference engine below answers SE002–SE005 one set element at a
// time and stable-sorts the findings themselves. It is slow (SE005
// alone is O(S·|MOD|·N)) and plainly right, so the engine's set-algebra
// rules and index sort must give deep-equal reports, order and all.

// referenceRules are the element-at-a-time bodies of SE002–SE005. SE001,
// SE006 and SE007 read no sets; the reference runs them through the
// engine one rule at a time.
var referenceRules = map[string]func(in *lint.Input, emit func(lint.Diagnostic)){
	"SE002": refPureProcedure,
	"SE003": refAliasHazard,
	"SE004": refDeadGlobal,
	"SE005": refIgnorableCall,
}

// refLevel resolves a rule's selection and severity under cfg, as the
// engine documents Config: Enable narrows, Disable subtracts, and keys
// name a rule by ID or slug.
func refLevel(cfg lint.Config, rl lint.Rule) (lint.Severity, bool) {
	named := func(keys []string) bool { return slices.Contains(keys, rl.ID) || slices.Contains(keys, rl.Name) }
	if len(cfg.Enable) > 0 && !named(cfg.Enable) || named(cfg.Disable) {
		return 0, false
	}
	sev := rl.Default
	for key, s := range cfg.Severity {
		if key == rl.ID || key == rl.Name {
			sev = s
		}
	}
	return sev, true
}

// referenceLint is lint.Run with the reference rules and order.
func referenceLint(t testing.TB, a *Analysis, cfg lint.Config) *lint.Report {
	t.Helper()
	in := a.lintInput()
	rep := &lint.Report{Counts: make(map[string]int)}
	for _, rl := range lint.Rules() {
		sev, on := refLevel(cfg, rl)
		if !on {
			continue
		}
		rep.Counts[rl.ID] = 0
		if sev < cfg.MinSeverity {
			continue
		}
		emit := func(d lint.Diagnostic) {
			d.Rule, d.Name, d.Severity = rl.ID, rl.Name, sev
			rep.Diags = append(rep.Diags, d)
			rep.Counts[rl.ID]++
		}
		if body, ok := referenceRules[rl.ID]; ok {
			body(in, emit)
			continue
		}
		one, err := lint.Run(in, lint.Config{Enable: []string{rl.ID}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range one.Diags {
			emit(d)
		}
	}
	refSortDiagnostics(rep.Diags)
	return rep
}

// refPureProcedure flags procedures with no effects visible to any
// caller: GMOD(p) contains nothing outside p's own frame (its locals
// and val-formal copies), which also implies no ref formal is in RMOD.
// Such calls commute with any computation and may run in any order.
func refPureProcedure(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		if p.IsMain {
			continue
		}
		pure := true
		in.Mod.GMOD[p.ID].ForEach(func(id int) {
			v := in.Prog.Vars[id]
			if v.Owner != p || v.Kind == ir.FormalRef {
				pure = false
			}
		})
		if pure {
			emit(lint.Diagnostic{
				Proc: p.Name, Subject: p.Name, Pos: p.Pos,
				Message: fmt.Sprintf("procedure %s has no caller-visible side effects (GMOD∪RMOD empty); calls to it may be reordered or parallelized",
					p.Name),
			})
		}
	}
}

// refAliasHazard reports the exact precision loss of Section 5: an
// alias pair ⟨x, y⟩ holding on entry to p, together with a call site
// in p whose DMOD contains one of the two names, means the factored
// MOD set must conservatively include the other — a write through one
// name is observable through both.
func refAliasHazard(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		pairs := in.Aliases.Pairs(p)
		if len(pairs) == 0 {
			continue
		}
		for _, cs := range p.Calls {
			dmod := in.Mod.DMOD[cs.ID]
			for _, pr := range pairs {
				x, y := in.Prog.Vars[pr.X], in.Prog.Vars[pr.Y]
				hit, other := x, y
				switch {
				case dmod.Has(x.ID):
				case dmod.Has(y.ID):
					hit, other = y, x
				default:
					continue
				}
				emit(lint.Diagnostic{
					Proc: p.Name, Subject: hit.Name, Pos: cs.Pos,
					Message: fmt.Sprintf("%s and %s may be aliased on entry to %s and the call to %s may modify %s; writes are visible through both names (MOD widens to include %s)",
						x, y, p.Name, cs.Callee.Name, hit, other),
				})
			}
		}
	}
}

// refDeadGlobal flags globals that appear in no procedure's GMOD or
// GUSE: nothing reachable ever modifies or reads them.
func refDeadGlobal(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, g := range in.Prog.Globals() {
		live := false
		for _, p := range in.Prog.Procs {
			if in.Mod.GMOD[p.ID].Has(g.ID) || in.Use.GMOD[p.ID].Has(g.ID) {
				live = true
				break
			}
		}
		if !live {
			emit(lint.Diagnostic{
				Subject: g.Name, Pos: g.Pos,
				Message: fmt.Sprintf("global %s is never modified or used by any procedure (absent from every GMOD and GUSE); it can be removed",
					g.Name),
			})
		}
	}
}

// refIgnorableCall flags call sites whose (alias-factored) MOD set is
// disjoint from every use the caller can still make: the caller's own
// direct uses, the USE sets of its other call sites, and — for values
// that outlive the caller's frame — any use anywhere in the program.
// Everything such a call computes is dead. The check is the
// flow-insensitive over-approximation of "subsequent USE": uses
// textually before the call also count, which only suppresses
// findings, never fabricates them.
func refIgnorableCall(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		for _, cs := range p.Calls {
			mod := in.ModSets[cs.ID]
			if mod.Empty() {
				continue // no effects at all: SE002 territory
			}
			dead := true
			mod.ForEach(func(id int) {
				if !dead {
					return
				}
				v := in.Prog.Vars[id]
				if p.IUSE.Has(id) {
					dead = false
					return
				}
				for _, other := range p.Calls {
					if other != cs && in.UseSets[other.ID].Has(id) {
						dead = false
						return
					}
				}
				// v outlives p's frame (a global, an outer-scope
				// variable, or a ref formal bound to a caller's
				// variable): it must be unused program-wide.
				if v.Owner != p || v.Kind == ir.FormalRef {
					for _, q := range in.Prog.Procs {
						if in.Use.GMOD[q.ID].Has(id) {
							dead = false
							return
						}
					}
				}
			})
			if dead {
				emit(lint.Diagnostic{
					Proc: p.Name, Subject: cs.Callee.Name, Pos: cs.Pos,
					Message: fmt.Sprintf("call to %s modifies only %s, none of which is ever used afterwards; the call's effects are dead",
						cs.Callee.Name, "{"+strings.Join(report.VarNames(in.Prog, mod), ", ")+"}"),
				})
			}
		}
	}
}

// refSortDiagnostics imposes the engine's total order: position first
// (line, then column), then rule ID, then subject and message as
// tie-breakers for co-located findings.
func refSortDiagnostics(ds []lint.Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Message < b.Message
	})
}

// reportDiff describes the first difference between two reports.
func reportDiff(got, want *lint.Report) string {
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		return fmt.Sprintf("counts %v, reference %v", got.Counts, want.Counts)
	}
	for i := range min(len(got.Diags), len(want.Diags)) {
		if got.Diags[i] != want.Diags[i] {
			return fmt.Sprintf("finding %d:\n  engine    %+v\n  reference %+v", i, got.Diags[i], want.Diags[i])
		}
	}
	return fmt.Sprintf("%d findings, reference %d", len(got.Diags), len(want.Diags))
}

// checkAgainstReference lints a under each config with the engine and
// with the reference, and requires deep-equal reports.
func checkAgainstReference(t *testing.T, name string, a *Analysis, configs []lint.Config) {
	t.Helper()
	for _, cfg := range configs {
		got, err := a.Lint(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := referenceLint(t, a, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, config %+v: the engine's report differs from the reference: %s", name, cfg, reportDiff(got, want))
		}
	}
}

// TestLintMatchesReference holds the engine to the reference engine on
// the lint fixtures, the determinism corpus, the differential corpus
// (once as source and once straight from the IR, where every position
// is zero and order rests on the tie-breaks), depth-3 nested programs,
// IR-built programs with repeated and spaced names, multi-file GOROOT
// packages and a program with crowded call sites, under the zero
// config, a rule subset, severity overrides and a minimum severity.
func TestLintMatchesReference(t *testing.T) {
	configs := []lint.Config{
		{},
		{Enable: []string{"SE002", "alias-hazard", "SE004", "ignorable-call"}},
		{MinSeverity: lint.Warning},
		{Disable: []string{"SE001"}, Severity: map[string]lint.Severity{"ignorable-call": lint.Error, "SE002": lint.Warning}, MinSeverity: lint.Warning},
	}
	analyze := func(name, src string) *Analysis {
		a, err := AnalyzeWith(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return a
	}
	for _, base := range lintFixtures(t) {
		src, err := os.ReadFile(filepath.Join("testdata", "lint", base+".mpl"))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, base, analyze(base, string(src)), configs)
	}
	for name, src := range determinismSources() {
		checkAgainstReference(t, name, analyze(name, src), configs)
	}
	for i, cfg := range differentialConfigs() {
		prog := workload.Random(cfg)
		name := fmt.Sprintf("differential %d (N=%d, seed %d)", i, cfg.Procs, cfg.Seed)
		checkAgainstReference(t, name, analyze(name, workload.Emit(prog)), configs[:1])
		a, err := AnalyzeProgramContext(context.Background(), prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstReference(t, name+" from the IR", a, configs[:1])
	}
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.DefaultConfig(120, 24+seed)
		cfg.MaxDepth, cfg.NestFraction = 3, 0.5
		name := fmt.Sprintf("nested depth 3, seed %d", cfg.Seed)
		checkAgainstReference(t, name, analyze(name, workload.Emit(workload.Random(cfg))), configs)
	}
	for name, prog := range awkwardNamePrograms() {
		a, err := AnalyzeProgramContext(context.Background(), prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstReference(t, name, a, configs[:2])
	}
	// Multi-file packages bring $-prefixed temporaries, method owners
	// and positions that collide across the files of one package.
	for _, pkg := range []string{"sort", "strconv", "bufio"} {
		results, err := AnalyzeGoPackages([]string{filepath.Join(runtime.GOROOT(), "src", pkg)}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, r := range results {
			checkAgainstReference(t, "GOROOT "+pkg, r.Analysis, configs[:1])
		}
	}
	// Many SE003 findings per call site, ordered by their tie keys.
	cfg := workload.DefaultConfig(300, 1)
	cfg.MaxDepth, cfg.NestFraction = 3, 0.5
	a := analyze("nested depth 3, 300 procedures", workload.Emit(workload.Random(cfg)))
	rep, err := a.Lint(lint.Config{Enable: []string{"SE003"}})
	if err != nil {
		t.Fatal(err)
	}
	perSite := map[token.Pos]int{}
	for _, d := range rep.Diags {
		perSite[d.Pos]++
	}
	crowded := 0
	for _, n := range perSite {
		if n >= 100 {
			crowded++
		}
	}
	if crowded < 100 {
		t.Fatalf("only %d call sites carry 100 or more SE003 findings; the input no longer tests crowded sites", crowded)
	}
	checkAgainstReference(t, "nested depth 3, 300 procedures", a, configs[:1])
}

// awkwardNamePrograms returns programs built straight from the IR, so
// every position is zero, renamed after construction: qualified names
// repeat across procedures, and in half of them names hold a space or
// a tab, which void SE003's tie key. Their ties rest on the strings.
func awkwardNamePrograms() map[string]*ir.Program {
	out := map[string]*ir.Program{}
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.DefaultConfig(30, 700+seed)
		if seed%3 == 2 {
			cfg.MaxDepth, cfg.NestFraction = 2, 0.4
		}
		prog := workload.Random(cfg)
		procs, globals, locals := []string{"p", "q", "pq"}, []string{"g", "gh", "g!", "h"}, []string{"x", "y", "xy"}
		kind := "repeated names"
		if seed%2 == 1 {
			kind = "names with spaces and tabs"
			procs = append(procs, "p q", "p\tq")
			globals = append(globals, "g h", "g\th", "g ")
			locals = append(locals, "x y", "x\ty")
		}
		for _, p := range prog.Procs[1:] {
			p.Name = procs[p.ID%len(procs)]
		}
		for _, v := range prog.Vars {
			if v.Owner == nil {
				v.Name = globals[v.ID%len(globals)]
			} else {
				v.Name = locals[v.ID%len(locals)]
			}
		}
		out[fmt.Sprintf("IR-built, %s, seed %d", kind, cfg.Seed)] = prog
	}
	return out
}

// TestIgnorableCallCases pins SE005's "used by another call" and
// "outlives the frame" tests, one case per way a modified variable can
// be live or dead, against fixed answers and the reference.
func TestIgnorableCallCases(t *testing.T) {
	const procs = `
global g;
proc inc(ref x)
begin
  x := x + 1
end;
proc setx(ref x)
begin
  x := 1
end;
proc show(ref y)
  var z;
begin
  z := y
end;
`
	cases := []struct {
		name, body string
		dead       []string // SE005 findings as "caller→callee"
	}{
		{"read only by the call itself", `
proc work()
  var t;
begin
  call inc(t)
end;
begin
  call work()
end.`, []string{"work→inc"}},
		{"read by one other call", `
proc work()
  var t;
begin
  call setx(t);
  call show(t)
end;
begin
  call work()
end.`, nil},
		{"read by two other calls", `
proc work()
  var t;
begin
  call inc(t);
  call show(t);
  call show(t)
end;
begin
  call work()
end.`, nil},
		{"outer-scope variable read in another procedure", `
proc host()
  var t;
  proc setter()
  begin
    t := 1
  end;
  proc reader()
    var z;
  begin
    z := t
  end;
  proc mid()
  begin
    call setter()
  end;
begin
  call mid();
  call reader()
end;
begin
  call host()
end.`, nil},
		{"outer-scope variable read nowhere", `
proc host()
  var t;
  proc setter()
  begin
    t := 1
  end;
  proc mid()
  begin
    call setter()
  end;
begin
  call mid()
end;
begin
  call host()
end.`, []string{"mid→setter", "host→mid"}},
		{"ref formal read inside the call", `
proc wrap(ref r)
  proc touch()
    var z;
  begin
    r := 1;
    z := r
  end;
begin
  call touch()
end;
proc outer()
  var t;
begin
  call wrap(t)
end;
begin
  call outer()
end.`, []string{"outer→wrap"}},
		{"val formal read inside the call", `
proc wrap(val v)
  proc touch()
    var z;
  begin
    v := 1;
    z := v
  end;
begin
  call touch()
end;
begin
  call wrap(1)
end.`, []string{"wrap→touch"}},
	}
	for _, c := range cases {
		a, err := Analyze("program cases;\n" + procs + c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := a.Lint(lint.Config{Enable: []string{"SE005"}})
		if err != nil {
			t.Fatal(err)
		}
		var dead []string
		for _, d := range rep.Diags {
			dead = append(dead, d.Proc+"→"+d.Subject)
		}
		if !reflect.DeepEqual(dead, c.dead) {
			t.Errorf("%s: SE005 fired on %v, want %v", c.name, dead, c.dead)
		}
		checkAgainstReference(t, c.name, a, []lint.Config{{}})
	}
}
