package sideeffect

import (
	"fmt"
	"testing"

	"sideeffect/internal/baseline"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// differentialConfigs enumerates the random-program population for the
// differential harness: flat and nested shapes across several sizes,
// many seeds each — about 200 programs in total.
func differentialConfigs() []workload.Config {
	var cfgs []workload.Config
	for _, size := range []int{8, 20, 40} {
		for seed := int64(0); seed < 50; seed++ {
			cfgs = append(cfgs, workload.DefaultConfig(size, seed))
		}
	}
	// Nested programs exercise the multi-level GMOD driver.
	for seed := int64(0); seed < 50; seed++ {
		cfg := workload.DefaultConfig(25, 1000+seed)
		cfg.MaxDepth = 3
		cfg.NestFraction = 0.4
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestDifferentialAgainstBaselines runs the fast pipeline and the
// independent iterative baselines over ~200 generated programs and
// requires bit-identical RMOD and GMOD solutions. The swift-style
// decomposed solver and Banning's direct equation-(1) fixpoint share
// no code with the paper's algorithms, so agreement here is strong
// evidence that Figure 1 / Figure 2 (and the multi-level extension)
// are implemented correctly.
func TestDifferentialAgainstBaselines(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		prog := workload.Random(cfg)
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			tag := fmt.Sprintf("size=%d seed=%d depth=%d kind=%v", cfg.Procs, cfg.Seed, cfg.MaxDepth, kind)
			res := core.Analyze(prog, kind, core.Options{})
			sw := baseline.SwiftDecomposed(res.Prog, res.Facts)
			for _, v := range res.Beta.Nodes {
				if res.RMOD.Of(v) != sw.RMODOf(v) {
					t.Fatalf("%s: RMOD(%s) = %v, swift says %v", tag, v, res.RMOD.Of(v), sw.RMODOf(v))
				}
			}
			ban := baseline.BanningIterative(res.Prog, res.Facts)
			for _, p := range res.Prog.Procs {
				if !res.GMOD[p.ID].Equal(sw.GMOD[p.ID]) {
					t.Fatalf("%s: GMOD(%s) disagrees with swift:\n fast %v\n swift %v",
						tag, p.Name, res.GMOD[p.ID], sw.GMOD[p.ID])
				}
				if !res.GMOD[p.ID].Equal(ban.GMOD[p.ID]) {
					t.Fatalf("%s: GMOD(%s) disagrees with banning:\n fast    %v\n banning %v",
						tag, p.Name, res.GMOD[p.ID], ban.GMOD[p.ID])
				}
			}
		}
	}
}

// TestSequentialParallelIdentical proves the concurrent stage engine
// is an observational no-op: for a spread of programs, the sequential
// pipeline and the parallel one must render byte-identical reports (in
// every format) and identical per-call-site sets.
func TestSequentialParallelIdentical(t *testing.T) {
	progs := map[string]*ir.Program{
		"paper":  workload.PaperExample(),
		"divide": workload.DivideConquer(),
		"chain":  workload.Chain(12),
		"cycle":  workload.Cycle(9),
		"fanout": workload.Fanout(16),
		"tower":  workload.NestedTower(4),
	}
	for seed := int64(0); seed < 10; seed++ {
		progs[fmt.Sprintf("rand%d", seed)] = workload.Random(workload.DefaultConfig(30, seed))
		cfg := workload.DefaultConfig(20, 100+seed)
		cfg.MaxDepth = 2
		cfg.NestFraction = 0.35
		progs[fmt.Sprintf("nest%d", seed)] = workload.Random(cfg)
	}
	for name, prog := range progs {
		src := workload.Emit(prog)
		seq, err := AnalyzeWith(src, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		par, err := AnalyzeWith(src, Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s: parallel: %v", name, err)
		}
		if s, p := seq.Report(), par.Report(); s != p {
			t.Errorf("%s: sequential and parallel reports differ:\n--- seq\n%s\n--- par\n%s", name, s, p)
		}
		sj, err := report.JSON(seq.Mod, seq.Use, seq.Aliases, seq.SecMod)
		if err != nil {
			t.Fatalf("%s: json: %v", name, err)
		}
		pj, err := report.JSON(par.Mod, par.Use, par.Aliases, par.SecMod)
		if err != nil {
			t.Fatalf("%s: json: %v", name, err)
		}
		if string(sj) != string(pj) {
			t.Errorf("%s: sequential and parallel JSON differ", name)
		}
		for i := range seq.ModSets {
			if !seq.ModSets[i].Equal(par.ModSets[i]) || !seq.UseSets[i].Equal(par.UseSets[i]) {
				t.Errorf("%s: call site %d sets differ between schedules", name, i)
			}
		}
	}
}

// TestAnalyzeAllMatchesAnalyze checks the batch API against one-at-a-
// time analysis: same order, same reports, and per-entry error
// isolation.
func TestAnalyzeAllMatchesAnalyze(t *testing.T) {
	var srcs []string
	for seed := int64(0); seed < 12; seed++ {
		srcs = append(srcs, workload.Emit(workload.Random(workload.DefaultConfig(15, seed))))
	}
	srcs = append(srcs, "program broken; begin x := 1 end.") // undeclared: must fail alone
	srcs = append(srcs, workload.Emit(workload.PaperExample()))

	got := AnalyzeAll(srcs, Options{Workers: 4})
	if len(got) != len(srcs) {
		t.Fatalf("AnalyzeAll returned %d results for %d inputs", len(got), len(srcs))
	}
	for i, src := range srcs {
		want, wantErr := Analyze(src)
		if (got[i].Err != nil) != (wantErr != nil) {
			t.Fatalf("entry %d: batch err = %v, direct err = %v", i, got[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got[i].Analysis.Report() != want.Report() {
			t.Errorf("entry %d: batch report differs from direct analysis", i)
		}
	}
}
