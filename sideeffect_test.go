package sideeffect

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"sideeffect/internal/workload"
)

const demoSrc = `
program demo;
global g, h;
global A[10, 10];

proc swap(ref a, ref b)
  var t;
begin
  t := a; a := b; b := t
end;

proc colset(ref c[*], val v)
  var i;
begin
  for i := 1 to 10 do c[i] := v end
end;

proc driver(ref x)
begin
  call swap(x, g);
  call colset(A[*, 2], h)
end;

begin
  call driver(h)
end.
`

func analyzeDemo(t *testing.T) *Analysis {
	t.Helper()
	a, err := Analyze(demoSrc)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

func TestAnalyzeMOD(t *testing.T) {
	a := analyzeDemo(t)
	mod, err := a.MOD("swap")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"swap.a", "swap.b", "swap.t"}
	if strings.Join(mod, " ") != strings.Join(want, " ") {
		t.Errorf("MOD(swap) = %v, want %v", mod, want)
	}
	mod, _ = a.MOD("driver")
	// driver swaps x↔g and sets column 2 of A.
	for _, w := range []string{"A", "driver.x", "g"} {
		if !contains(mod, w) {
			t.Errorf("MOD(driver) = %v, missing %s", mod, w)
		}
	}
	mod, _ = a.MOD("$main")
	for _, w := range []string{"A", "g", "h"} {
		if !contains(mod, w) {
			t.Errorf("MOD(main) = %v, missing %s", mod, w)
		}
	}
}

func TestAnalyzeUSE(t *testing.T) {
	a := analyzeDemo(t)
	use, err := a.USE("swap")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"swap.a", "swap.b", "swap.t"} {
		if !contains(use, w) {
			t.Errorf("USE(swap) = %v, missing %s", use, w)
		}
	}
	use, _ = a.USE("driver")
	// driver uses g (swapped) and h (val argument) and x.
	for _, w := range []string{"g", "h", "driver.x"} {
		if !contains(use, w) {
			t.Errorf("USE(driver) = %v, missing %s", use, w)
		}
	}
}

func TestAnalyzeRMOD(t *testing.T) {
	a := analyzeDemo(t)
	r, err := a.RMOD("swap")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r, " ") != "a b" {
		t.Errorf("RMOD(swap) = %v", r)
	}
	r, _ = a.RMOD("driver")
	if strings.Join(r, " ") != "x" {
		t.Errorf("RMOD(driver) = %v", r)
	}
	r, _ = a.RMOD("colset")
	if strings.Join(r, " ") != "c" {
		t.Errorf("RMOD(colset) = %v", r)
	}
}

func TestAnalyzeCallSites(t *testing.T) {
	a := analyzeDemo(t)
	sites := a.CallSites()
	if len(sites) != 3 {
		t.Fatalf("sites = %d", len(sites))
	}
	var colsetSite *CallSite
	for i := range sites {
		if sites[i].Callee == "colset" {
			colsetSite = &sites[i]
		}
	}
	if colsetSite == nil {
		t.Fatal("no colset site")
	}
	if !contains(colsetSite.MOD, "A") {
		t.Errorf("MOD at colset site = %v", colsetSite.MOD)
	}
	if !contains(colsetSite.USE, "h") {
		t.Errorf("USE at colset site = %v", colsetSite.USE)
	}
	// The section must refine A to column 2.
	found := false
	for _, s := range colsetSite.Sections {
		if s == "A(*, 2)" {
			found = true
		}
	}
	if !found {
		t.Errorf("Sections = %v, want A(*, 2)", colsetSite.Sections)
	}
	// Alias factoring at the swap site: x and h are aliased in driver
	// (h passed by reference), so MOD includes h... x is bound to h at
	// main's call; ALIAS(driver) = ⟨x, h⟩ wait — h is passed TO x, so
	// inside driver ⟨x, h⟩ holds; swap(x, g) modifies x and g; alias
	// adds h.
	var swapSite *CallSite
	for i := range sites {
		if sites[i].Callee == "swap" {
			swapSite = &sites[i]
		}
	}
	for _, w := range []string{"driver.x", "g", "h"} {
		if !contains(swapSite.MOD, w) {
			t.Errorf("MOD at swap site = %v, missing %s", swapSite.MOD, w)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze("program p; begin x := 1 end."); err == nil {
		t.Error("bad program accepted")
	}
	a := analyzeDemo(t)
	if _, err := a.MOD("nosuch"); err == nil {
		t.Error("MOD of unknown procedure accepted")
	}
	if _, err := a.USE("nosuch"); err == nil {
		t.Error("USE of unknown procedure accepted")
	}
	if _, err := a.RMOD("nosuch"); err == nil {
		t.Error("RMOD of unknown procedure accepted")
	}
}

func TestAnalyzePrunes(t *testing.T) {
	a, err := Analyze(`
program p;
global g;
proc dead() begin g := 1 end;
begin end.
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.Procedures() {
		if name == "dead" {
			t.Error("unreachable procedure not pruned")
		}
	}
}

func TestReportRenders(t *testing.T) {
	a := analyzeDemo(t)
	r := a.Report()
	for _, want := range []string{
		"== Interprocedural summaries ==",
		"== Reference formal parameters (RMOD) ==",
		"== Alias pairs ==",
		"== Call sites ==",
		"== Regular sections (MOD) ==",
		"A(*, 2)",
		"swap",
		"GMOD",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestProcedures(t *testing.T) {
	a := analyzeDemo(t)
	ps := a.Procedures()
	if ps[0] != "$main" || len(ps) != 4 {
		t.Errorf("Procedures = %v", ps)
	}
}

func contains(xs []string, w string) bool {
	for _, x := range xs {
		if x == w {
			return true
		}
	}
	return false
}

// TestConcurrentQueriesShareNameOrder has 8 goroutines ask one fresh
// analysis for MOD, USE, CallSites and Report at once, so that the
// program's name order is built while others read it, and checks every
// answer against a sequential fresh analysis of the same source. CI
// runs it under -race -count=10.
func TestConcurrentQueriesShareNameOrder(t *testing.T) {
	cfg := workload.DefaultConfig(120, 9)
	cfg.MaxDepth, cfg.NestFraction = 2, 0.4
	src := workload.Emit(workload.Random(cfg))
	answers := func(a *Analysis) (mod, use [][]string, sites []CallSite, rep string) {
		for _, p := range a.Procedures() {
			m, err := a.MOD(p)
			if err != nil {
				t.Error(err)
			}
			u, err := a.USE(p)
			if err != nil {
				t.Error(err)
			}
			mod, use = append(mod, m), append(use, u)
		}
		return mod, use, a.CallSites(), a.Report()
	}
	ref, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	wantMOD, wantUSE, wantSites, wantReport := answers(ref)
	a, err := Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mod, use, sites, rep := answers(a)
			if !reflect.DeepEqual(mod, wantMOD) || !reflect.DeepEqual(use, wantUSE) {
				t.Error("MOD or USE answers differ from a sequential analysis")
			}
			if !reflect.DeepEqual(sites, wantSites) {
				t.Error("CallSites differ from a sequential analysis")
			}
			if rep != wantReport {
				t.Error("Report differs from a sequential analysis")
			}
		}()
	}
	wg.Wait()
	if a.Prog.NameOrder(0) == nil {
		t.Error("the queries never built the name order")
	}
}
