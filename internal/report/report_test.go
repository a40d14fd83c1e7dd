package report

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/alias"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/section"
)

const src = `
program rpt;
global g, h;
global A[4, 4];
proc setcol(ref c[*], val v)
  var i;
begin
  for i := 1 to 4 do c[i] := v end
end;
proc touch(ref x) begin x := g end;
begin
  call touch(h);
  call setcol(A[*, 2], g)
end.
`

func results(t *testing.T) (*ir.Program, *core.Result, *core.Result, *alias.Analysis, *section.Result) {
	t.Helper()
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	mod := core.Analyze(prog, core.Mod, core.Options{})
	use := core.Analyze(prog, core.Use, core.Options{})
	al := alias.Compute(prog)
	sec := section.Analyze(mod, core.Mod)
	return prog, mod, use, al, sec
}

func TestVarNames(t *testing.T) {
	prog, mod, _, _, _ := results(t)
	names := VarNames(prog, mod.GMOD[prog.Proc("setcol").ID])
	want := "setcol.c, setcol.i"
	if got := strings.Join(names, ", "); got != want {
		t.Errorf("VarNames = %q, want %q", got, want)
	}
	if VarNames(prog, bitset.New(0)) != nil {
		t.Error("VarNames of empty set should be nil")
	}
}

// TestVarNamesMatchesStringSort checks VarNames against sort.Strings
// over Variable.String() on names that share prefixes and a qualified
// name held by two variables, for every set of up to three variables,
// on both sides of the name order's build rule, and for the empty set,
// which gives nil before and after, so that JSON keeps null.
func TestVarNamesMatchesStringSort(t *testing.T) {
	b := ir.NewBuilder("names")
	for _, g := range []string{"g1", "g10", "g1x", "px", "p", "g1.x", "g1 "} {
		b.Global(g)
	}
	p := b.Proc("p", nil)
	b.Local(p, "x")
	b.Local(p, "x1")
	q := b.Proc("g1", nil)
	b.Formal(q, "x", ir.FormalRef, 0)
	b.Local(q, "y")
	prog := b.MustFinish()
	want := func(s *bitset.Set) []string {
		var out []string
		s.ForEach(func(id int) { out = append(out, prog.Vars[id].String()) })
		sort.Strings(out)
		return out
	}
	checkEmpty := func() {
		t.Helper()
		names := VarNames(prog, bitset.New(0))
		if js, _ := json.Marshal(names); names != nil || string(js) != "null" {
			t.Errorf("VarNames of the empty set = %#v (JSON %s), want nil", names, js)
		}
	}
	checkEmpty()
	var before, after int
	n := len(prog.Vars)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			for k := j; k < n; k++ {
				s := bitset.New(n)
				s.Add(i)
				s.Add(j)
				s.Add(k)
				if prog.NameOrder(0) == nil {
					before++
				} else {
					after++
				}
				if got, w := VarNames(prog, s), want(s); !slices.Equal(got, w) {
					t.Fatalf("VarNames(%v) = %q, want %q", s, got, w)
				}
			}
		}
	}
	if before == 0 || after == 0 {
		t.Errorf("%d sets sorted before the name order was built and %d after; want both", before, after)
	}
	checkEmpty()
}

func TestTable(t *testing.T) {
	got := Table([][]string{{"a", "bb"}, {"ccc", "d"}})
	want := "a    bb\n---  --\nccc  d\n"
	if got != want {
		t.Errorf("Table = %q, want %q", got, want)
	}
	if Table(nil) != "" {
		t.Error("Table(nil) should be empty")
	}
}

func TestTableUnicodeAlignment(t *testing.T) {
	got := Table([][]string{{"h", "x"}, {"a → b", "1"}, {"plain", "2"}})
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	// The second column must start at the same rune column in each row.
	col := -1
	for _, l := range lines[2:] {
		runes := []rune(l)
		idx := strings.LastIndexAny(string(runes), "12")
		if col == -1 {
			col = len([]rune(l[:idx]))
		} else if len([]rune(l[:idx])) != col {
			t.Errorf("misaligned table:\n%s", got)
		}
	}
}

func TestSummaries(t *testing.T) {
	_, mod, use, _, _ := results(t)
	out := Summaries(mod, use)
	for _, want := range []string{"procedure", "GMOD", "GUSE", "touch", "setcol", "$main", "{A, h}"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summaries missing %q:\n%s", want, out)
		}
	}
}

func TestRMODTable(t *testing.T) {
	_, mod, _, _, _ := results(t)
	out := RMODTable(mod)
	if !strings.Contains(out, "touch") || !strings.Contains(out, "{x}") {
		t.Errorf("RMODTable:\n%s", out)
	}
	if !strings.Contains(out, "{c}") {
		t.Errorf("RMODTable missing setcol's c:\n%s", out)
	}
	// main has no formals: no row.
	if strings.Contains(out, "$main") {
		t.Errorf("RMODTable should skip formal-less procedures:\n%s", out)
	}
}

func TestCallSitesWithAndWithoutAliases(t *testing.T) {
	prog, mod, use, al, _ := results(t)
	plain := CallSites(prog, mod.DMOD, use.DMOD)
	factored := CallSites(prog, al.Factor(mod.DMOD), al.Factor(use.DMOD))
	if !strings.Contains(plain, "touch") {
		t.Errorf("CallSites:\n%s", plain)
	}
	// Alias factoring adds h to the touch call's MOD (x aliases h).
	if len(factored) < len(plain) {
		t.Error("factored output should not shrink")
	}
}

func TestSectionsTable(t *testing.T) {
	_, _, _, _, sec := results(t)
	out := Sections(sec)
	if !strings.Contains(out, "A(*, 2)") {
		t.Errorf("Sections missing column section:\n%s", out)
	}
}

func TestAliasesTable(t *testing.T) {
	_, _, _, al, _ := results(t)
	out := Aliases(al)
	if !strings.Contains(out, "⟨") {
		t.Errorf("Aliases table empty:\n%s", out)
	}
	// A program with no pairs renders the placeholder.
	prog2, err := sem.AnalyzeSource("program e; proc q() begin end; begin call q() end.")
	if err != nil {
		t.Fatal(err)
	}
	if got := Aliases(alias.Compute(prog2)); got != "(no alias pairs)\n" {
		t.Errorf("empty Aliases = %q", got)
	}
}

func TestFull(t *testing.T) {
	_, mod, use, al, sec := results(t)
	modSets, useSets := al.Factor(mod.DMOD), al.Factor(use.DMOD)
	out := Full(mod, use, al, sec, modSets, useSets)
	for _, want := range []string{
		"program rpt:", "Interprocedural summaries", "Reference formal",
		"Alias pairs", "Call sites", "Regular sections",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Full missing %q", want)
		}
	}
	// Without sections.
	out = Full(mod, use, al, nil, modSets, useSets)
	if strings.Contains(out, "Regular sections") {
		t.Error("Full(nil sections) should omit the section table")
	}
}

func TestDotCallGraph(t *testing.T) {
	prog, _, _, _, _ := results(t)
	dot := DotCallGraph(prog)
	for _, want := range []string{"digraph callgraph", "peripheries=2", "label=\"touch\"", "s0", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DotCallGraph missing %q:\n%s", want, dot)
		}
	}
	// Nesting containment edges.
	prog2, err := sem.AnalyzeSource(`
program n;
proc outer()
  proc inner() begin end;
begin call inner() end;
begin call outer() end.
`)
	if err != nil {
		t.Fatal(err)
	}
	dot = DotCallGraph(prog2)
	if !strings.Contains(dot, "style=dashed") {
		t.Errorf("nested containment edge missing:\n%s", dot)
	}
}

func TestDotBinding(t *testing.T) {
	prog, _, _, _, _ := results(t)
	beta := binding.Build(prog)
	dot := DotBinding(beta)
	for _, want := range []string{"digraph beta", "touch.x#0", "setcol.c#0"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DotBinding missing %q:\n%s", want, dot)
		}
	}
}

func TestJSON(t *testing.T) {
	_, mod, use, al, sec := results(t)
	out, err := BuildJSON(mod, use, al, sec).Render()
	if err != nil {
		t.Fatal(err)
	}
	var r JSONReport
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if r.Program != "rpt" {
		t.Errorf("program = %q", r.Program)
	}
	if len(r.Procedures) != 3 || len(r.CallSites) != 2 {
		t.Fatalf("%d procedures, %d sites", len(r.Procedures), len(r.CallSites))
	}
	var touch *JSONProcedure
	for i := range r.Procedures {
		if r.Procedures[i].Name == "touch" {
			touch = &r.Procedures[i]
		}
	}
	if touch == nil {
		t.Fatal("no touch procedure")
	}
	if len(touch.RMOD) != 1 || touch.RMOD[0] != "x" {
		t.Errorf("RMOD = %v", touch.RMOD)
	}
	if len(touch.Aliases) != 1 || touch.Aliases[0] != [2]string{"h", "touch.x"} {
		t.Errorf("Aliases = %v", touch.Aliases)
	}
	// Section strings survive.
	found := false
	for _, cs := range r.CallSites {
		for _, s := range cs.Sections {
			if s == "A(*, 2)" {
				found = true
			}
		}
	}
	if !found {
		t.Error("JSON missing section A(*, 2)")
	}
	// Nil aliases/sections: fields omitted, MOD falls back to DMOD.
	out2, err := BuildJSON(mod, use, nil, nil).Render()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "aliases") || strings.Contains(out2, "sections") {
		t.Error("nil inputs should omit fields")
	}
}
