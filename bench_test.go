package sideeffect

// One benchmark per experiment of EXPERIMENTS.md (E1–E10). Run with
//
//	go test -bench=. -benchmem
//
// The experiment harness (cmd/experiments) prints the analytic tables;
// these benches provide the wall-clock/allocation view under the Go
// benchmark methodology.

import (
	"context"
	"fmt"
	"testing"

	"sideeffect/internal/alias"
	"sideeffect/internal/baseline"
	"sideeffect/internal/binding"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lint"
	"sideeffect/internal/section"
	"sideeffect/internal/workload"
)

var benchSizes = []int{64, 256, 1024, 4096}

// E1 — Figure 1: RMOD on the binding multi-graph.
func BenchmarkRMOD(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(n)))
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SolveRMOD(beta, facts)
			}
		})
	}
}

// E2 — Figure 2: findgmod with globals growing linearly in N.
func BenchmarkFindGMOD(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(n)))
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		rmod := core.SolveRMOD(beta, facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		cg := callgraph.Build(prog)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.FindGMOD(cg.G, imodPlus, facts.Local, prog.Main.ID)
			}
		})
	}
}

// E3 — Figure 3: the regular-section meet operation.
func BenchmarkSectionMeet(b *testing.B) {
	bld := ir.NewBuilder("m")
	i := bld.Global("I")
	j := bld.Global("J")
	k := bld.Global("K")
	a1 := section.NewRSD(section.SymAtom(i), section.SymAtom(j))
	a2 := section.NewRSD(section.SymAtom(k), section.SymAtom(j))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		section.Meet(a1, a2)
	}
}

// E4 — RMOD head-to-head: Figure 1 vs swift-style iterative vs
// Banning on the chain family (the iterative worst case).
func BenchmarkRMODVersus(b *testing.B) {
	for _, n := range []int{256, 2048} {
		chain := workload.Chain(n)
		random := workload.Random(workload.DefaultConfig(n, int64(n)))
		for _, w := range []struct {
			tag  string
			prog *ir.Program
		}{{"chain", chain}, {"random", random}} {
			facts := core.ComputeFacts(w.prog, core.Mod)
			beta := binding.Build(w.prog)
			b.Run(fmt.Sprintf("%s/N=%d/fig1", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.SolveRMOD(beta, facts)
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/swift", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseline.SwiftDecomposed(w.prog, facts)
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/banning", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseline.BanningIterative(w.prog, facts)
				}
			})
		}
	}
}

// E5 — multi-level nesting: one findgmod family per nesting depth.
func BenchmarkMultiLevel(b *testing.B) {
	for _, d := range []int{0, 2, 4, 8} {
		cfg := workload.DefaultConfig(600, int64(77+d))
		cfg.MaxDepth = d
		if d > 0 {
			cfg.NestFraction = 0.7
		}
		prog := workload.Random(cfg).Prune()
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		rmod := core.SolveRMOD(beta, facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		cg := callgraph.Build(prog)
		b.Run(fmt.Sprintf("dP=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SolveGMODMultiLevel(cg, facts, imodPlus)
			}
		})
	}
}

// E6 — β construction is a single linear scan of the call sites.
func BenchmarkBetaConstruction(b *testing.B) {
	for _, mu := range []float64{2, 8} {
		cfg := workload.DefaultConfig(1000, int64(mu))
		cfg.AvgFormals = mu
		prog := workload.Random(cfg)
		b.Run(fmt.Sprintf("muF=%v", mu), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				binding.Build(prog)
			}
		})
	}
}

// E7 — Section 5: alias pairs and MOD factoring.
func BenchmarkComputeMOD(b *testing.B) {
	for _, n := range []int{256, 1024} {
		prog := workload.Random(workload.DefaultConfig(n, int64(n+5)))
		res := core.Analyze(prog, core.Mod, core.Options{})
		b.Run(fmt.Sprintf("N=%d/aliases", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alias.Compute(prog)
			}
		})
		an := alias.Compute(prog)
		b.Run(fmt.Sprintf("N=%d/factor", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an.Factor(res.DMOD)
			}
		})
	}
}

// E8 — Section 6: regular section analysis on the divide-and-conquer
// family and on random array-heavy programs.
func BenchmarkSections(b *testing.B) {
	divide := workload.DivideConquer()
	divideRes := core.Analyze(divide, core.Mod, core.Options{})
	b.Run("divide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			section.Analyze(divideRes, core.Mod)
		}
	})
	cfg := workload.DefaultConfig(512, 9)
	cfg.ArrayFormalFraction = 0.5
	cfg.GlobalArrays = 16
	prog := workload.Random(cfg)
	res := core.Analyze(prog, core.Mod, core.Options{})
	b.Run("random-arrays", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			section.Analyze(res, core.Mod)
		}
	})
}

// E9 — full pipeline end to end, from IR to per-call-site MOD sets.
func BenchmarkEndToEnd(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(3*n)))
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AnalyzeProgramWith(prog, Options{})
			}
		})
	}
}

// E10 — the parallelization decision per call site.
func BenchmarkParallelizeDecision(b *testing.B) {
	a, err := Analyze(`
program par;
global A[100, 100], n, i;
proc colop(ref c[*], val m)
  var r;
begin
  for r := 1 to m do c[r] := c[r] + 1 end
end;
begin
  for i := 1 to n do call colop(A[*, i], n) end
end.
`)
	if err != nil {
		b.Fatal(err)
	}
	cs := a.Prog.Sites[0]
	loopVar := a.Prog.Var("i")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := a.SecMod.AtCallWithin(cs, loopVar)
		for _, rsd := range at {
			section.DisjointAcrossIterations(rsd, rsd, loopVar)
		}
	}
}

// BenchmarkParseAnalyze measures the front end plus analysis on
// emitted synthetic source — the "compiler integration" cost.
func BenchmarkParseAnalyze(b *testing.B) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(200, 4)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(src); err != nil {
			b.Fatal(err)
		}
	}
}

// schedules are the two worker settings the E13 benchmarks compare:
// one worker (seq) and the default pool of GOMAXPROCS workers (par).
var schedules = []struct {
	name    string
	workers int
}{{"seq", 1}, {"par", 0}}

// E13 — batch throughput: a corpus of programs through AnalyzeAllContext
// on the worker pool vs the fully sequential schedule. On a single core
// the two are expected to tie. `experiments -run E13` records the same
// comparison.
func BenchmarkAnalyzeAll(b *testing.B) {
	const nProgs, procsEach = 12, 64
	srcs := make([]string, nProgs)
	for i := range srcs {
		srcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(procsEach, int64(500+i))))
	}
	ctx := context.Background()
	for _, s := range schedules {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range AnalyzeAllContext(ctx, srcs, Options{Workers: s.workers}) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// E13 — stage-level parallelism inside a single Analyze: the
// {Mod, Use, Aliases} and {SecMod, SecUse, ModSets, UseSets} stage
// groups run concurrently vs strictly in order on one large program.
func BenchmarkAnalyzeParallelStages(b *testing.B) {
	const procs = 1024
	prog := workload.Random(workload.DefaultConfig(procs, 7)).Prune()
	for _, s := range schedules {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AnalyzeProgramWith(prog, Options{Workers: s.workers})
			}
		})
	}
}

// E15 — the diagnostics engine over a finished analysis. The rules
// only re-read summary bit sets and precomputed loop verdicts; cost
// tracks the findings emitted, not the procedure count (the per-op
// times here divided by the finding counts E15 reports stay flat).
func BenchmarkLint(b *testing.B) {
	for _, n := range []int{64, 512} {
		src := workload.Emit(workload.Random(workload.DefaultConfig(n, int64(300+n))))
		a, err := AnalyzeWith(src, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Lint(lint.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12 — incremental maintenance vs full recomputation: core.Update
// from the unchanged base result, so every iteration applies the edit.
func BenchmarkIncremental(b *testing.B) {
	for _, n := range []int{256, 2048} {
		cfg := workload.DefaultConfig(n, int64(n))
		prog, edited := workload.Random(cfg), workload.Random(cfg)
		res := core.Analyze(prog, core.Mod, core.Options{})
		target := edited.Procs[edited.NumProcs()-1]
		for _, g := range edited.Globals() {
			if !res.GMOD[target.ID].Has(g.ID) {
				target.IMOD.Add(g.ID)
				break
			}
		}
		adds, _, ok := ir.AdditiveDelta(prog, edited)
		if !ok || len(adds) != 1 {
			b.Fatal("the edit is not one additive fact")
		}
		b.Run(fmt.Sprintf("N=%d/full", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(edited, core.Mod, core.Options{})
			}
		})
		beta, cg := binding.Build(edited), callgraph.Build(edited)
		b.Run(fmt.Sprintf("N=%d/incremental", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Update(res, edited, beta, cg, adds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
