package sideeffect

import (
	"path/filepath"
	"strings"
	"testing"

	"sideeffect/internal/ir"
)

// findFormal locates proc's formal named f in the analyzed program.
func findFormal(t *testing.T, r GoResult, proc, formal string) *ir.Variable {
	t.Helper()
	for _, p := range r.Analysis.Prog.Procs {
		if p.Name != proc {
			continue
		}
		for _, fm := range p.Formals {
			if fm.Name == formal {
				return fm
			}
		}
		t.Fatalf("%s: no formal %q", proc, formal)
	}
	t.Fatalf("no procedure %q in %s", proc, r.Pkg.Path)
	return nil
}

// TestGoFrontSelfAnalysis turns the frontend on the repository's own
// packages — the strongest available fixture, since these sources
// evolve with the codebase and exercise real idioms (receiver
// mutation, sparse/dense promotion, bump-allocated slabs). The asserted
// facts are deliberately coarse and stable: mutators modify their
// receiver, accessors do not.
func TestGoFrontSelfAnalysis(t *testing.T) {
	results, err := AnalyzeGoPackages([]string{
		filepath.Join("internal", "bitset"),
		filepath.Join("internal", "arena"),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byBase := map[string]GoResult{}
	for _, r := range results {
		byBase[filepath.Base(r.Pkg.Path)] = r
	}
	bs, ok := byBase["bitset"]
	if !ok {
		t.Fatal("bitset package not analyzed")
	}
	ar, ok := byBase["arena"]
	if !ok {
		t.Fatal("arena package not analyzed")
	}
	if n := bs.Analysis.Prog.NumProcs(); n < 20 {
		t.Errorf("bitset lowered to %d procedures, want a few dozen", n)
	}
	if bs.Pkg.TypeErrors > 0 {
		t.Errorf("bitset type-checked with %d errors, want 0", bs.Pkg.TypeErrors)
	}

	// Mutators must put their receiver in RMOD; pure accessors must
	// not. A frontend regression in hop-write or call lowering flips
	// one of these.
	cases := []struct {
		r            GoResult
		proc, formal string
		want         bool
	}{
		{bs, "Set.Add", "s", true},
		{bs, "Set.Remove", "s", true},
		{bs, "Set.Clear", "s", true},
		{bs, "Set.Densify", "s", true},
		{bs, "Set.IsSparse", "s", false},
		{ar, "Arena.Dense", "a", true},
	}
	for _, c := range cases {
		fm := findFormal(t, c.r, c.proc, c.formal)
		if got := c.r.Analysis.Mod.RMOD.Of(fm); got != c.want {
			t.Errorf("%s: RMOD(%s.%s) = %v, want %v",
				c.r.Pkg.Path, c.proc, c.formal, got, c.want)
		}
	}

	// Cross-package calls (arena → bitset) are unanalyzed from arena's
	// point of view, so some arena procedures must be degraded — and
	// the degradation must be visible in the confidence report.
	if d := ar.Pkg.Degraded(); len(d) == 0 {
		t.Error("arena: no degraded procedures despite cross-package calls into bitset")
	}
	if rep := ar.Pkg.ConfidenceReport(); rep == "" {
		t.Error("arena: empty confidence report")
	}
}

// TestGoFrontModuleSelfAnalysis re-runs the self-analysis in
// whole-module mode: internal/core plus internal/bitset and
// internal/arena, with their module-local import closure, lowered as
// one shared program. Cross-package calls that degraded whole
// packages in single-package mode now resolve, so internal/core's
// degraded count collapses from 46 to a pinned low bound — and the
// report must be byte-identical across every schedule and both core
// allocators.
func TestGoFrontModuleSelfAnalysis(t *testing.T) {
	patterns := []string{
		filepath.Join("internal", "core"),
		filepath.Join("internal", "bitset"),
		filepath.Join("internal", "arena"),
	}
	base, err := AnalyzeGoModule(".", patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if !base.Pkg.Module {
		t.Fatal("result is not a whole-module lowering")
	}
	if base.Pkg.TypeErrors > 0 {
		t.Errorf("module type-checked with %d errors, want 0", base.Pkg.TypeErrors)
	}
	closure := map[string]bool{}
	for _, p := range base.Pkg.Packages {
		closure[p] = true
	}
	for _, want := range []string{"internal/core", "internal/bitset", "internal/arena", "internal/ir"} {
		if !closure[want] {
			t.Errorf("module closure %v missing %s", base.Pkg.Packages, want)
		}
	}

	// The headline precision win: internal/core had 46 degraded
	// procedures in single-package mode; with the module closure
	// resolved only the genuinely external effects (stdlib calls,
	// function values, one open interface) remain.
	byPkg := base.Pkg.DegradedByPackage()
	if got := byPkg["internal/core"]; got == 0 || got > 10 {
		t.Errorf("internal/core degraded count = %d, want 1..10 (was 46 single-package)", got)
	}
	// arena's calls into bitset now bind to real procedures, and it
	// has no function values, so nothing there degrades.
	if got := byPkg["internal/arena"]; got != 0 {
		t.Errorf("internal/arena degraded count = %d, want 0", got)
	}
	for _, rec := range base.Pkg.DegradedRecords() {
		for _, reason := range rec.Reasons {
			if strings.Contains(reason, "cross-package") {
				t.Errorf("%s still degrades on a cross-package call: %v", rec.Proc, rec.Reasons)
			}
		}
	}

	// The coarse single-package facts must survive the module lowering
	// (procedure names gain their package-relative prefix).
	cases := []struct {
		proc, formal string
		want         bool
	}{
		{"internal/bitset.Set.Add", "s", true},
		{"internal/bitset.Set.IsSparse", "s", false},
		{"internal/arena.Arena.Dense", "a", true},
	}
	for _, c := range cases {
		fm := findFormal(t, base, c.proc, c.formal)
		if got := base.Analysis.Mod.RMOD.Of(fm); got != c.want {
			t.Errorf("RMOD(%s.%s) = %v, want %v", c.proc, c.formal, got, c.want)
		}
	}

	// Determinism: the full report (summaries, sections, confidence
	// table) is byte-identical under the sequential pipeline, a
	// parallel schedule, and the heap allocator.
	want := base.GoReport()
	variants := []Options{
		{Workers: 1},
		{Workers: 4},
		{heap: true},
		{Workers: 1, heap: true},
	}
	for _, opts := range variants {
		r, err := AnalyzeGoModule(".", patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := r.GoReport()
		if got != want {
			t.Errorf("report differs under %+v (len %d vs %d)", opts, len(got), len(want))
		}
	}
}
