package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sideeffect/internal/baseline"
	"sideeffect/internal/batch"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/workload"
)

// TestCondensedPerNodeIdentical is the differential gate of the
// SCC-condensed GMOD store: over the full differential corpus,
// sequentially and with a 4-worker schedule, every GMOD/GUSE row and
// every DMOD/DUSE row of the analysis must equal the paper's per-node
// Figure-2 search, solved level by level (baseline.PerNodeGMOD).
func TestCondensedPerNodeIdentical(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		src := workload.Emit(workload.Random(cfg))
		for _, workers := range []int{1, 4} {
			a, err := AnalyzeWith(src, Options{Workers: workers})
			if err != nil {
				t.Fatalf("size=%d seed=%d: %v", cfg.Procs, cfg.Seed, err)
			}
			for _, r := range []*core.Result{a.Mod, a.Use} {
				tag := fmt.Sprintf("size=%d seed=%d depth=%d workers=%d kind=%v",
					cfg.Procs, cfg.Seed, cfg.MaxDepth, workers, r.Kind)
				gmod, dmod := baseline.PerNodeGMOD(r.Prog, r.Kind)
				for _, p := range r.Prog.Procs {
					if !r.GMOD[p.ID].Equal(gmod[p.ID]) {
						t.Fatalf("%s: GMOD(%s) = %v, per-node %v", tag, p.Name, r.GMOD[p.ID], gmod[p.ID])
					}
				}
				for _, cs := range r.Prog.Sites {
					if !r.DMOD[cs.ID].Equal(dmod[cs.ID]) {
						t.Fatalf("%s: DMOD(site %d) = %v, per-node %v", tag, cs.ID, r.DMOD[cs.ID], dmod[cs.ID])
					}
				}
			}
		}
	}
}

// TestCondensedScopePremisePanics: the flat GMOD pass drops LOCAL masks
// on cross-component edges because a validated flat program's IMOD+
// escapes only globals. IR that breaks that premise (here IMOD of p
// holds a local of q, which ir.Program.Validate rejects) must stop the
// analysis with a panic naming the variable, never solve it silently
// by another route; the hardened entry point returns the panic as an
// error.
func TestCondensedScopePremisePanics(t *testing.T) {
	b := ir.NewBuilder("premise")
	g := b.Global("g")
	p := b.Proc("p", nil)
	q := b.Proc("q", nil)
	x := b.Local(q, "x")
	b.Mod(p, g)
	b.Mod(q, x)
	b.Call(b.Main(), p, nil, token.Pos{})
	b.Call(p, q, nil, token.Pos{})
	prog := b.MustFinish()
	p.IMOD.Add(x.ID)

	func() {
		defer func() {
			rec := recover()
			if msg := fmt.Sprint(rec); rec == nil || !strings.Contains(msg, x.String()) {
				t.Errorf("core.Analyze recovered %v, want a panic naming %s", rec, x)
			}
		}()
		core.Analyze(prog, core.Mod, core.Options{})
	}()

	_, err := AnalyzeProgramContext(context.Background(), prog, Options{Workers: 1})
	var pe *batch.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("AnalyzeProgramContext error %v, want one wrapping *batch.PanicError", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), x.String()) {
		t.Errorf("panic value %v does not name %s", pe.Value, x)
	}
}

// TestCondensedSCCInvariant checks the storage layer's licence
// (Theorem 1) on the solved results: every member of a
// strongly-connected component must report the same escaping set
// GMOD(u) ∖ LOCAL(u), since the condensed solver stores exactly one
// such row per component.
func TestCondensedSCCInvariant(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := workload.DefaultConfig(40, 500+seed)
		cfg.CycleFraction = 0.6 // bias toward non-trivial components
		prog := workload.Random(cfg)
		st := core.BuildStructure(prog)
		scc := st.CG.G.SCC()
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			r := core.Analyze(prog, kind, core.Options{Structure: st})
			esc := make([]*bitset.Set, prog.NumProcs())
			for _, p := range prog.Procs {
				e := bitset.New(prog.NumVars())
				e.UnionDiffWith(r.GMOD[p.ID], r.Facts.Local[p.ID])
				esc[p.ID] = e
			}
			for c, members := range scc.Members {
				if len(members) < 2 {
					continue
				}
				first := members[0]
				for _, u := range members[1:] {
					if !esc[u].Equal(esc[first]) {
						t.Fatalf("seed=%d kind=%v: SCC %d members %s and %s disagree:\n %v\n %v",
							seed, kind, c, prog.Procs[first].Name, prog.Procs[u].Name, esc[first], esc[u])
					}
				}
			}
		}
	}
}

// TestAnalyzeCondensedMatchesAnalyze checks the giant-graph entry
// point row for row against the materializing pipeline: GMOD rows,
// sizes, and DMOD rows reconstructed from the condensed store must be
// bit-identical, on flat and nested programs of both kinds.
func TestAnalyzeCondensedMatchesAnalyze(t *testing.T) {
	cfgs := []workload.Config{
		workload.DefaultConfig(60, 7),
		workload.DefaultConfig(300, 8),
	}
	for seed := int64(0); seed < 5; seed++ {
		cfg := workload.DefaultConfig(30, 200+seed)
		cfg.MaxDepth = 3
		cfg.NestFraction = 0.4
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		prog := workload.Random(cfg)
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			tag := fmt.Sprintf("size=%d seed=%d depth=%d kind=%v", cfg.Procs, cfg.Seed, cfg.MaxDepth, kind)
			r := core.Analyze(prog, kind, core.Options{})
			cr := core.AnalyzeCondensed(prog, kind, core.Options{})
			sc := bitset.New(prog.NumVars())
			for _, p := range prog.Procs {
				sc.Clear()
				if !cr.GMODInto(p.ID, sc).Equal(r.GMOD[p.ID]) {
					t.Fatalf("%s: GMOD(%s) differs:\n condensed %v\n full      %v", tag, p.Name, sc, r.GMOD[p.ID])
				}
				if got, want := cr.GMODSize(p.ID), r.GMOD[p.ID].Len(); got != want {
					t.Fatalf("%s: GMODSize(%s) = %d, want %d", tag, p.Name, got, want)
				}
			}
			for _, cs := range prog.Sites {
				sc.Clear()
				if !cr.DMODInto(cs.ID, sc).Equal(r.DMOD[cs.ID]) {
					t.Fatalf("%s: DMOD(site %d) differs:\n condensed %v\n full      %v", tag, cs.ID, sc, r.DMOD[cs.ID])
				}
			}
			// The condensed path must do no more bit-vector work than
			// Theorem 2 allows the per-node search.
			for lvl, s := range cr.GMODStats {
				if s.Visits != prog.NumProcs() {
					t.Fatalf("%s: level %d visited %d of %d procedures", tag, lvl, s.Visits, prog.NumProcs())
				}
				if s.EdgeUnions > prog.NumSites() {
					t.Fatalf("%s: level %d edge unions %d exceed %d call sites", tag, lvl, s.EdgeUnions, prog.NumSites())
				}
			}
		}
	}
}

// TestEmitToMatchesEmit pins the streaming source emitter to the
// string emitter byte for byte across flat, nested, and structured
// workloads.
func TestEmitToMatchesEmit(t *testing.T) {
	nest := workload.DefaultConfig(25, 12)
	nest.MaxDepth = 3
	nest.NestFraction = 0.4
	progs := map[string]*ir.Program{
		"paper":  workload.PaperExample(),
		"tower":  workload.NestedTower(4),
		"flat":   workload.Random(workload.DefaultConfig(40, 11)),
		"nested": workload.Random(nest),
	}
	for name, prog := range progs {
		want := workload.Emit(prog)
		var b strings.Builder
		if err := workload.EmitTo(&b, prog); err != nil {
			t.Fatalf("%s: EmitTo: %v", name, err)
		}
		if b.String() != want {
			t.Fatalf("%s: EmitTo differs from Emit", name)
		}
	}
}
