package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"sideeffect"
	"sideeffect/internal/baseline"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lint"
	"sideeffect/internal/prof"
	"sideeffect/internal/workload"
)

// minipl-large analyzes big generated MiniPL programs: a flat one and
// one nested to depth 3, the only workload that runs the multi-level
// GMOD of the paper's Section 4. Each op runs AnalyzeWith, a batch of
// MOD point queries and a full Lint on both programs in turn; the two
// programs' costs differ by half, so an op per program would give a
// latency median that falls between two clusters. There is no full
// report render, whose output grows quadratically with program size.
// Here the core, alias and lint layers do most of the work.
var miniPLDef = workloadDef{name: "minipl-large", clients: 1, warmup: 1, setup: setupMiniPL}

type miniProg struct {
	name    string
	src     string
	queries []string
	ref     *miniOut // the first op's outputs
}

// miniOut is the first op's outputs: the MOD and USE GMOD sets, a
// digest of the query answers, and the findings.
type miniOut struct {
	gmod    []*bitset.Set
	answers uint64
	rep     *lint.Report
}

type miniPL struct {
	seed        int64
	oracleProcs int
	progs       []*miniProg
}

func setupMiniPL(r *run) (instance, error) {
	s := r.sizes
	nested := workload.DefaultConfig(s.nestedProcs, nestedShape)
	nested.MaxDepth, nested.NestFraction = 3, 0.5
	m := &miniPL{seed: r.seed, oracleProcs: s.oracleProcs}
	for k, cfg := range []workload.Config{workload.DefaultConfig(s.flatProcs, flatShape), nested} {
		p := &miniProg{name: fmt.Sprintf("%s/N=%d", []string{"flat", "nested"}[k], cfg.Procs),
			src: workload.Emit(workload.Random(cfg))}
		rng := rand.New(rand.NewSource(r.seed + int64(k)))
		for q := 0; q < s.queries; q++ {
			p.queries = append(p.queries, "p"+strconv.Itoa(rng.Intn(cfg.Procs)))
		}
		m.progs = append(m.progs, p)
	}
	return m, nil
}

// checkSetup compares the solver with the declarative oracles of
// internal/baseline on the nested program and on a flat one small
// enough for the quadratic oracle.
func (m *miniPL) checkSetup() error {
	flat := workload.Emit(workload.Random(workload.DefaultConfig(m.oracleProcs, m.seed)))
	for _, src := range []string{m.progs[1].src, flat} {
		a, err := sideeffect.Analyze(src)
		if err != nil {
			return err
		}
		for _, res := range []*core.Result{a.Mod, a.Use} {
			rmod := baseline.RMODReachability(res.Beta, res.Facts)
			for n, want := range rmod {
				if res.RMOD.Node[n] != want {
					return fmt.Errorf("minipl-large: %s RMOD(%s) = %v, oracle %v", res.Kind, res.Beta.Nodes[n], !want, want)
				}
			}
			gmod := baseline.GMODReachability(res.Prog, res.IMODPlus, res.Facts)
			for _, p := range res.Prog.Procs {
				if !res.GMOD[p.ID].Equal(gmod[p.ID]) {
					return fmt.Errorf("minipl-large: %s GMOD(%s) differs from the oracle", res.Kind, p.Name)
				}
			}
		}
	}
	return nil
}

func (m *miniPL) round() int { return 1 }

func (m *miniPL) op(r *run, i int) error {
	root := r.tr.begin(i, 0, "minipl-large.op", "bench")
	defer r.tr.end(root, nil)
	for _, p := range m.progs {
		var res miniResult
		var err error
		if r.tr == nil {
			res, err = analyzeMini(p)
		} else {
			res, err = tracedMini(r, i, root, p)
		}
		if err != nil {
			return fmt.Errorf("minipl-large op %d (%s): %w", i, p.name, err)
		}
		if p.ref == nil {
			p.ref = res.record()
			continue
		}
		if err := p.ref.check(res); err != nil {
			return fmt.Errorf("minipl-large op %d (%s) against the first op: %w", i, p.name, err)
		}
	}
	return nil
}

// miniResult is what one op produces.
type miniResult struct {
	a       *sideeffect.Analysis
	answers uint64
	rep     *lint.Report
}

// analyzeMini is one untraced op.
func analyzeMini(p *miniProg) (miniResult, error) {
	a, err := sideeffect.AnalyzeWith(p.src, sideeffect.Options{})
	if err != nil {
		return miniResult{}, err
	}
	answers, err := queryMOD(a, p.queries)
	if err != nil {
		return miniResult{}, err
	}
	rep, err := a.Lint(lint.Config{})
	if err != nil {
		return miniResult{}, err
	}
	return miniResult{a, answers, rep}, nil
}

// tracedMini makes the calls AnalyzeWith makes, one layer at a time,
// with the stage tables of the analysis and of the lint run on.
func tracedMini(r *run, i, root int, p *miniProg) (miniResult, error) {
	tr := r.tr
	sp := tr.begin(i, root, "sem.AnalyzeSource", "lang")
	prog, err := sem.AnalyzeSource(p.src)
	if err == nil {
		prog = prog.Prune()
	}
	tr.end(sp, nil)
	if err != nil {
		return miniResult{}, err
	}
	sp = tr.begin(i, root, "sideeffect.AnalyzeProgramWith", "core")
	a := sideeffect.AnalyzeProgramWith(prog, sideeffect.Options{Profile: true})
	tr.end(sp, stageNS(a.Stages))
	sp = tr.begin(i, root, "Analysis.MOD", "core")
	answers, err := queryMOD(a, p.queries)
	tr.end(sp, nil)
	if err != nil {
		return miniResult{}, err
	}
	lp := prof.New()
	sp = tr.begin(i, root, "Analysis.Lint", "lint")
	rep, err := a.Lint(lint.Config{Prof: lp})
	tr.end(sp, stageNS(lp))
	if err != nil {
		return miniResult{}, err
	}
	work := a.GMODWork()
	r.add("steps", float64(work.BitVectorSteps()))
	r.add("components", float64(work.Components))
	r.add("shared", float64(work.SharedRowHits))
	r.add("findings", float64(len(rep.Diags)))
	r.add("src_bytes", float64(len(p.src)))
	return miniResult{a, answers, rep}, nil
}

// queryMOD answers the point queries and digests the answers.
func queryMOD(a *sideeffect.Analysis, procs []string) (uint64, error) {
	h := fnv.New64a()
	for _, proc := range procs {
		names, err := a.MOD(proc)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			h.Write([]byte(n))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64(), nil
}

// record keeps the outputs later ops are checked against.
func (res miniResult) record() *miniOut {
	out := &miniOut{answers: res.answers, rep: res.rep}
	for _, cr := range []*core.Result{res.a.Mod, res.a.Use} {
		for _, s := range cr.GMOD {
			out.gmod = append(out.gmod, s.Clone())
		}
	}
	return out
}

// check reports how res differs from the recorded outputs: its GMOD
// sets, query answers and number of findings.
func (ref *miniOut) check(res miniResult) error {
	k := 0
	for _, cr := range []*core.Result{res.a.Mod, res.a.Use} {
		for _, s := range cr.GMOD {
			if k >= len(ref.gmod) || !s.Equal(ref.gmod[k]) {
				return fmt.Errorf("GMOD set %d differs", k)
			}
			k++
		}
	}
	switch {
	case k != len(ref.gmod):
		return fmt.Errorf("%d GMOD sets, want %d", k, len(ref.gmod))
	case res.answers != ref.answers:
		return fmt.Errorf("MOD query answers differ")
	case len(res.rep.Diags) != len(ref.rep.Diags):
		return fmt.Errorf("%d findings, want %d", len(res.rep.Diags), len(ref.rep.Diags))
	}
	return nil
}

// renderFindings renders a lint report the way modlint prints it.
func renderFindings(rep *lint.Report) string {
	return lint.Text([]lint.FileReport{{File: "program.mpl", Report: rep}})
}

func (m *miniPL) finish(r *run, b *breakdown) (map[string]float64, error) {
	if b == nil {
		return nil, nil
	}
	for _, p := range m.progs {
		// The traced calls must give AnalyzeWith's outputs exactly, down
		// to the rendered findings.
		res, err := analyzeMini(p)
		if err == nil && p.ref != nil {
			if err = p.ref.check(res); err == nil && renderFindings(res.rep) != renderFindings(p.ref.rep) {
				err = fmt.Errorf("rendered findings differ")
			}
			if err != nil {
				err = fmt.Errorf("minipl-large %s: untraced op against the traced ones: %w", p.name, err)
			}
		}
		r.verify(err)
	}
	ops := float64(b.ops)
	parse := b.spanNS["sem.AnalyzeSource"]
	m2 := map[string]float64{
		"lang.parse_ms":         b.perOp(parse),
		"lang.mb_per_s":         r.sum("src_bytes") / (1 << 20) / (parse / 1e9),
		"core.bit_vector_steps": r.sum("steps") / ops,
		"core.components":       r.sum("components") / ops,
		"core.shared_row_hits":  r.sum("shared") / ops,
		"lint.ms":               b.perOp(b.spanNS["Analysis.Lint"]),
		"lint.findings":         r.sum("findings") / ops,
	}
	b.stageMetrics(m2)
	return m2, nil
}

func (m *miniPL) close() {}
