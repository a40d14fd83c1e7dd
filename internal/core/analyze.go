package core

import (
	"context"
	"fmt"
	"strings"

	"sideeffect/internal/arena"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/prof"
)

// Result is the complete solution of one side-effect problem (MOD or
// USE) for a program, with every intermediate the paper names exposed
// for inspection and testing.
type Result struct {
	Prog *ir.Program
	Kind Kind

	Facts *Facts
	Beta  *binding.Beta
	CG    *callgraph.CallGraph

	// RMOD solves the reference-formal-parameter problem (Section 3).
	RMOD *RMOD
	// IMODPlus is equation (5), indexed by procedure ID.
	IMODPlus []*bitset.Set
	// GMOD is the generalized side-effect set (equations 3/4), indexed
	// by procedure ID. For the Use problem this is GUSE, and so on.
	GMOD []*bitset.Set
	// DMOD is equation (2) evaluated at every call site, indexed by
	// call-site ID: the variables that may be affected by executing
	// the call statement, before alias factoring.
	DMOD []*bitset.Set

	// Arena backs the result's bit vectors. It lives and dies with the
	// Result; downstream passes whose output shares the Result's
	// lifetime (alias factoring) draw from it too.
	Arena *arena.Arena

	// GMODStats holds the findgmod work counters, one entry per
	// nesting level solved.
	GMODStats []GMODStats
}

// Options configures Analyze.
type Options struct {
	// Prof, when non-nil, accumulates per-stage wall time (and
	// optionally allocation counters) under names like "mod.gmod".
	Prof *prof.Profile
	// Structure, when non-nil and built for the program Analyze
	// solves, supplies the kind-independent skeleton so a MOD+USE pair
	// shares one graph construction. A nil or mismatched Structure is
	// ignored and the skeleton is built internally.
	Structure *Structure
	// Faults, when non-nil, injects deterministic faults at every
	// stage boundary (sites "core.mod.gmod", "core.use.rmod", …) for
	// chaos testing. Injected panics propagate to the caller; injected
	// errors abort the analysis through the same path as cancellation.
	// Production runs leave this nil.
	Faults *faultinject.Injector
}

// Analyze runs the complete pipeline of the paper for one problem
// kind:
//
//	local facts → binding multi-graph → RMOD (Figure 1) →
//	IMOD+ (equation 5) → GMOD (Figure 2 / Section 4 multi-level) →
//	DMOD (equation 2).
//
// Total cost is O(N + E) graph work plus O((N+E)·v) bit-vector work
// for vectors of v words, matching the paper's O(N² + NE) when the
// number of variables grows linearly with the program. The paper
// assumes unreachable procedures were removed first (ir.Program.Prune,
// Section 3.3); on an unpruned nested program the nesting extension
// may report effects of never-called nested procedures.
func Analyze(prog *ir.Program, kind Kind, opts Options) *Result {
	r, err := AnalyzeCtx(context.Background(), prog, kind, opts)
	if err != nil {
		// Unreachable without a cancellable context or a fault
		// injector; callers that supply either use AnalyzeCtx.
		panic(err)
	}
	return r
}

// AnalyzeCtx is Analyze with deadline propagation and fault injection.
// The context is consulted at every stage boundary (the stages are the
// cost units of the paper's complexity argument, so a deadline is
// honored within one linear sub-pass): a cancelled analysis stops and
// reports ctx.Err(). Injected faults (Options.Faults) surface the same
// way, except injected panics, which propagate to the caller;
// converting them to errors is the public layer's job.
func AnalyzeCtx(ctx context.Context, prog *ir.Program, kind Kind, opts Options) (*Result, error) {
	pl := newPipeline(ctx, kind, opts)
	cr, gmod := pl.solve(prog, true)
	if pl.err != nil {
		return nil, pl.abort()
	}
	r := &Result{
		Prog: cr.Prog, Kind: kind, Facts: cr.Facts, Beta: cr.Beta, CG: cr.CG,
		RMOD: cr.RMOD, IMODPlus: cr.IMODPlus, GMOD: gmod, Arena: pl.ar, GMODStats: cr.GMODStats,
	}
	if !pl.step("dmod", func() { r.DMOD = computeDMOD(r.Prog, r.RMOD, r.GMOD, r.Facts, pl.ar) }) {
		return nil, pl.abort()
	}
	return r, nil
}

// pipeline is one run of the stage sequence shared by AnalyzeCtx and
// AnalyzeCondensed.
type pipeline struct {
	ctx  context.Context // nil: not cancellable
	kind Kind
	opts Options
	pfx  string       // stage-name prefix, "mod." or "use."
	ar   *arena.Arena // the rows' storage; nil: the heap
	err  error        // the first failed step's error
}

func newPipeline(ctx context.Context, kind Kind, opts Options) *pipeline {
	return &pipeline{ctx: ctx, kind: kind, opts: opts, pfx: strings.ToLower(kind.String()) + "."}
}

// step guards one stage: fault point first (so chaos runs can hit a
// stage even when the context is healthy), then the deadline. Once a
// step fails, it and every later step return false without running.
func (pl *pipeline) step(stage string, f func()) bool {
	if pl.err == nil {
		pl.err = pl.opts.Faults.At("core." + pl.pfx + stage)
	}
	if pl.err == nil && pl.ctx != nil {
		pl.err = pl.ctx.Err()
	}
	if pl.err != nil {
		return false
	}
	pl.opts.Prof.Do(pl.pfx+stage, f)
	return true
}

// solve runs the stages up to GMOD:
//
//	β → call graph → facts → RMOD → IMOD+ → GMOD
//
// GMOD is solved as per-level escape tables. With rows set (Analyze),
// the gmod stage materializes every procedure's row from the tables and
// returns the rows, and every result row is carved from a fresh arena;
// without it (AnalyzeCondensed), the tables stay on the returned
// CondensedResult and rows come from the heap. Either way a row follows
// arena.Row's storage rule. After a failed step pl.err is set and the
// results are incomplete.
func (pl *pipeline) solve(prog *ir.Program, rows bool) (*CondensedResult, []*bitset.Set) {
	if rows {
		pl.ar = new(arena.Arena)
	}
	r := &CondensedResult{Prog: prog, Kind: pl.kind}
	st := pl.opts.Structure
	if st == nil || st.Prog != prog {
		st = &Structure{Prog: prog}
		pl.step("beta", func() { st.Beta = binding.Build(prog); st.betaComponents() })
		pl.step("callgraph", func() { st.CG = callgraph.Build(prog); st.fillLevels() })
	}
	r.Beta, r.CG = st.Beta, st.CG
	pl.step("facts", func() { r.Facts = computeFacts(prog, pl.kind, pl.ar) })
	pl.step("rmod", func() { r.RMOD = solveRMOD(st.Beta, r.Facts, st.betaComponents()) })
	pl.step("imod+", func() { r.IMODPlus = computeIMODPlus(r.Facts, r.RMOD, pl.ar) })
	var gmod []*bitset.Set
	pl.step("gmod", func() {
		r.levels, r.GMODStats = solveLevels(st, r.Facts, r.IMODPlus)
		if rows {
			gmod, r.levels = gmodRows(r.levels, r.IMODPlus, pl.ar, prog.NumVars()), nil
		}
	})
	return r, gmod
}

// abort reports a run that failed at a stage boundary.
func (pl *pipeline) abort() error {
	return fmt.Errorf("core: %s analysis aborted: %w", pl.pfx[:len(pl.pfx)-1], pl.err)
}

// ComputeDMOD evaluates equation (2) at every call site:
//
//	DMOD(s) = LMOD(s) ∪ ∪_{e=(p,q)∈s} b_e(GMOD(q))
//
// where for a call statement the local part LMOD(s) is empty for the
// Mod problem and, for the Use problem, consists of the variables the
// caller reads to evaluate the arguments (val-argument expressions and
// subscripts of element/section actuals — call-by-value evaluates
// eagerly). The projection b_e keeps every non-local of the callee
// under its own name (globals and variables of enclosing scopes) and
// maps formals in RMOD(q) to the actual variables bound to them.
func ComputeDMOD(prog *ir.Program, rmod *RMOD, gmod []*bitset.Set, facts *Facts) []*bitset.Set {
	return computeDMOD(prog, rmod, gmod, facts, nil)
}

// computeDMOD is ComputeDMOD with the per-site rows carved from ar (nil:
// the heap).
func computeDMOD(prog *ir.Program, rmod *RMOD, gmod []*bitset.Set, facts *Facts, ar *arena.Arena) []*bitset.Set {
	out := make([]*bitset.Set, prog.NumSites())
	for _, cs := range prog.Sites {
		out[cs.ID] = dmodRow(cs, rmod, gmod, facts, ar)
	}
	return out
}

// dmodRow evaluates equation (2) at one call site, in a row carved from
// ar (nil: the heap). A DMOD row accumulates a whole callee's
// projection, so it is dense, and it is as wide as what it can hold:
// the callee's GMOD row and the highest actual the site adds (a
// by-reference actual bound to an RMOD formal, and for Use every
// argument's uses). Up to arena.DenseRowBits the GMOD row spans the
// universe, and so does the DMOD row.
func dmodRow(cs *ir.CallSite, rmod *RMOD, gmod []*bitset.Set, facts *Facts, ar *arena.Arena) *bitset.Set {
	q := cs.Callee
	// actuals calls f on each variable the site adds to b_e(GMOD(q)).
	actuals := func(f func(id int)) {
		for i, a := range cs.Args {
			if facts.Kind == Use {
				for _, u := range a.Uses {
					f(u.ID)
				}
			}
			if a.Mode == ir.FormalRef && a.Var != nil && rmod.Of(q.Formals[i]) {
				f(a.Var.ID)
			}
		}
	}
	nbits := gmod[q.ID].Words() * 64
	actuals(func(id int) { nbits = max(nbits, id+1) })
	d := ar.Dense(nbits)
	// b_e over non-locals: GMOD(q) ∖ LOCAL(q).
	d.UnionDiffWith(gmod[q.ID], facts.Local[q.ID])
	actuals(d.Add)
	return d
}
