package main

import (
	"fmt"

	"sideeffect/internal/alias"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lang/token"
	"sideeffect/internal/report"
	"sideeffect/internal/section"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E3", "Figure 3: the regular-section lattice, reproduced as a meet table", expE3},
		experiment{"E7", "§5: MOD assembly and alias factoring (cost linear in |ALIAS|)", expE7},
		experiment{"E8", "§6: regular section analysis — meets independent of lattice depth; g_p(x)⊓x=x cycles stabilize", expE8},
		experiment{"E10", "§6 motivation: sections unlock parallelization that whole-array summaries block", expE10},
	)
}

// expE3 prints the meet table of the paper's Figure 3 instance.
func expE3(bool) {
	b := ir.NewBuilder("fig3")
	vars := map[string]*ir.Variable{}
	for _, n := range []string{"I", "J", "K", "L"} {
		vars[n] = b.Global(n)
	}
	prog := b.MustFinish()
	atom := func(s string) section.Atom {
		if s == "*" {
			return section.StarAtom
		}
		return section.SymAtom(vars[s])
	}
	mk := func(a, c string) section.RSD { return section.NewRSD(atom(a), atom(c)) }
	elems := []struct {
		name string
		rsd  section.RSD
	}{
		{"A(I,J)", mk("I", "J")},
		{"A(K,J)", mk("K", "J")},
		{"A(K,L)", mk("K", "L")},
		{"A(*,J)", mk("*", "J")},
		{"A(K,*)", mk("K", "*")},
		{"A(*,*)", mk("*", "*")},
	}
	rows := [][]string{{"⊓"}}
	for _, e := range elems {
		rows[0] = append(rows[0], e.name)
	}
	for _, a := range elems {
		row := []string{a.name}
		for _, c := range elems {
			m := section.Meet(a.rsd, c.rsd)
			row = append(row, m.Format("A", prog.Vars))
		}
		rows = append(rows, row)
	}
	fmt.Print(report.Table(rows))
	fmt.Println("\nClaim check: elements meet into their common row/column, rows meet columns into")
	fmt.Println("the whole array — exactly the Hasse structure drawn in the paper's Figure 3.")
}

// expE7 measures alias analysis and factoring on alias-heavy programs
// (every call passes globals by reference, often twice).
func expE7(quick bool) {
	ns := sizes(quick)
	rows := [][]string{{"N", "E", "alias pairs", "compute", "factor", "|MOD| growth"}}
	for _, n := range ns {
		cfg := workload.DefaultConfig(n, int64(n+5))
		cfg.FormalModProb = 0.6
		prog := workload.Random(cfg)
		res := core.Analyze(prog, core.Mod, core.Options{})
		var an *alias.Analysis
		tc := timeIt(func() { an = alias.Compute(prog) })
		var mod = res.DMOD
		tf := timeIt(func() { mod = an.Factor(res.DMOD) })
		before, after := 0, 0
		for _, cs := range prog.Sites {
			before += res.DMOD[cs.ID].Len()
			after += mod[cs.ID].Len()
		}
		growth := "n/a"
		if before > 0 {
			growth = f2(float64(after) / float64(before))
		}
		rows = append(rows, []string{
			fmt.Sprint(prog.NumProcs()), fmt.Sprint(prog.NumSites()),
			fmt.Sprint(an.NumPairs()), dur(tc), dur(tf), growth,
		})
	}
	fmt.Print(report.Table(rows))
	fmt.Println("\nClaim check: factoring time tracks the number of alias pairs (Section 5's 'linear")
	fmt.Println("in the size of DMOD(s) and ALIAS(p)'), and stays a small tax on the pipeline.")
}

// expE8 runs the section solver on divide-and-conquer recursion and on
// deep binding chains with growing symbol universes, showing that the
// meet count does not grow with lattice depth (the symbol universe).
func expE8(quick bool) {
	// Part 1: the DivideConquer cycle.
	prog := workload.DivideConquer()
	modRes := core.Analyze(prog, core.Mod, core.Options{})
	res := section.Analyze(modRes, core.Mod)
	m := res.FormalOf(prog.Var("split.M"))
	fmt.Printf("divide-and-conquer: rsd(split.M) = %s (cycle with g_p(x) ⊓ x = x stays exact)\n",
		m.Format("M", prog.Vars))
	fmt.Printf("meets = %d, g_e applications = %d\n\n", res.Stats.Meets, res.Stats.MapApps)

	// Part 2: chains of column-passing procedures; the symbol universe
	// (number of globals = potential lattice "width") grows, the meet
	// count must not.
	lens := []int{4, 8, 16, 32}
	if quick {
		lens = []int{4, 16}
	}
	rows := [][]string{{"chain len", "symbols", "meets", "g_e apps", "meets/Eβ", "time"}}
	for _, n := range lens {
		prog := sectionChain(n)
		modRes := core.Analyze(prog, core.Mod, core.Options{})
		var sres *section.Result
		t := timeIt(func() { sres = section.Analyze(modRes, core.Mod) })
		eb := modRes.Beta.G.NumEdges()
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(n + 2),
			fmt.Sprint(sres.Stats.Meets), fmt.Sprint(sres.Stats.MapApps),
			f2(float64(sres.Stats.Meets) / float64(eb)), dur(t),
		})
	}
	fmt.Print(report.Table(rows))
	fmt.Println("\nClaim check: meets per β edge stay constant as the chain and symbol universe")
	fmt.Println("grow — the complexity does not depend on the depth of the lattice (Section 6).")
}

// sectionChain builds p1..pn, each passing its whole array formal on,
// with the leaf modifying column j.
func sectionChain(n int) *ir.Program {
	b := ir.NewBuilder(fmt.Sprintf("secchain%d", n))
	a := b.Global("A", 64, 64)
	j := b.Global("j")
	procs := make([]*ir.Procedure, n)
	arrs := make([]*ir.Variable, n)
	for i := 0; i < n; i++ {
		procs[i] = b.Proc(fmt.Sprintf("p%d", i), nil)
		arrs[i] = b.Formal(procs[i], "M", ir.FormalRef, 2)
	}
	for i := 0; i+1 < n; i++ {
		b.Call(procs[i], procs[i+1], []ir.Actual{{Mode: ir.FormalRef, Var: arrs[i]}}, token.Pos{})
	}
	b.Access(procs[n-1], arrs[n-1],
		[]ir.Sub{{Kind: ir.SubStar}, {Kind: ir.SubSym, Sym: j}}, true, token.Pos{})
	b.Call(b.Main(), procs[0], []ir.Actual{{Mode: ir.FormalRef, Var: a}}, token.Pos{})
	return b.MustFinish()
}

// expE10 measures how often section information proves loop
// iterations independent where whole-array analysis cannot.
func expE10(bool) {
	src := `
program parallel;
global A[100, 100], B[100, 100], n, i;

proc colop(ref c[*], val m)
  var r;
begin
  for r := 1 to m do c[r] := c[r] + 1 end
end;

proc smear(ref M[*, *], val m)
  var r;
begin
  for r := 1 to m do M[r, r] := 0 end
end;

begin
  for i := 1 to n do
    call colop(A[*, i], n);
    call smear(B, n)
  end
end.
`
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		panic(err)
	}
	modRes := core.Analyze(prog, core.Mod, core.Options{})
	sres := section.Analyze(modRes, core.Mod)
	loopVar := prog.Var("i")

	rows := [][]string{{"call", "whole-array verdict", "iteration-local section", "section verdict"}}
	for _, cs := range prog.Sites {
		// The iteration-local view treats the loop index as fixed
		// within one iteration; two iterations then conflict only if
		// their sections can intersect.
		at := sres.AtCallWithin(cs, loopVar)
		for vid, rsd := range at {
			v := prog.Vars[vid]
			whole := "serialize (array modified)"
			verdict := "serialize"
			if section.DisjointAcrossIterations(rsd, rsd, loopVar) {
				verdict = "PARALLELIZE"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%s→%s", cs.Caller.Name, cs.Callee.Name),
				whole,
				rsd.Format(v.Name, prog.Vars),
				verdict,
			})
		}
	}
	fmt.Print(report.Table(rows))
	fmt.Println("\nClaim check: the column-wise call parallelizes under section analysis and cannot")
	fmt.Println("under whole-array summaries; the diagonal smear correctly stays serialized.")
}

func init() {
	experiments = append(experiments,
		experiment{"E11", "ablation: SimpleSections (Figure 3) vs BoundedSections lattice — precision for equal asymptotic cost", expE11},
	)
}

// expE11 compares the two section lattices on workloads whose
// procedures touch constant blocks of shared arrays: the bounded
// lattice separates blocks that the Figure-3 lattice merges into ⋆,
// at a comparable meet count (Section 6's depth-independence).
func expE11(quick bool) {
	counts := []int{4, 8, 16}
	if quick {
		counts = []int{4, 8}
	}
	rows := [][]string{{"block procs", "meets simple", "meets bounded", "disjoint pairs simple", "disjoint pairs bounded"}}
	for _, k := range counts {
		prog := blockWorkload(k)
		modRes := core.Analyze(prog, core.Mod, core.Options{})
		simple := section.AnalyzeIn(modRes, core.Mod, section.SimpleSections)
		bounded := section.AnalyzeIn(modRes, core.Mod, section.BoundedSections)
		aID := prog.Var("A").ID
		count := func(res *section.Result) int {
			n := 0
			var secs []section.RSD
			for _, cs := range prog.Sites {
				if s, ok := res.AtCall(cs)[aID]; ok {
					secs = append(secs, s)
				}
			}
			for i := range secs {
				for j := i + 1; j < len(secs); j++ {
					if !section.MayIntersect(secs[i], secs[j]) {
						n++
					}
				}
			}
			return n
		}
		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprint(simple.Stats.Meets), fmt.Sprint(bounded.Stats.Meets),
			fmt.Sprint(count(simple)), fmt.Sprint(count(bounded)),
		})
	}
	fmt.Print(report.Table(rows))
	fmt.Println("\nClaim check: the meet counts track each other (cost is lattice-depth independent),")
	fmt.Println("while only the bounded lattice proves block-disjointness (Section 6's point that")
	fmt.Println("the framework accommodates richer lattices for more precision at the same asymptotics).")
}

// blockWorkload: k procedures each writing a disjoint 4-element block
// of global A through their array formal.
func blockWorkload(k int) *ir.Program {
	b := ir.NewBuilder(fmt.Sprintf("blocks%d", k))
	a := b.Global("A", 1000)
	for i := 0; i < k; i++ {
		p := b.Proc(fmt.Sprintf("blk%d", i), nil)
		v := b.Formal(p, "v", ir.FormalRef, 1)
		base := 10 * (i + 1)
		for j := 0; j < 4; j++ {
			b.Access(p, v, []ir.Sub{{Kind: ir.SubConst, Const: base + j}}, true, token.Pos{})
		}
		b.Call(b.Main(), p, []ir.Actual{{Mode: ir.FormalRef, Var: a}}, token.Pos{})
	}
	return b.MustFinish()
}
