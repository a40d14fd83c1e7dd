package sideeffect

import (
	"context"
	"errors"
	"fmt"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/ast"
	"sideeffect/internal/lang/parser"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/prof"
	"sideeffect/internal/section"
)

// This file holds the public API's one contract. Every entry point
// honours Options.Faults and never panics: a panic anywhere — in the
// MiniPL parse and prune, the Go load and lower, a pipeline stage or a
// lint rule — comes back as an error wrapping *batch.PanicError. Every
// analysis, a session edit's included, runs one pipeline
// (analyzeProgram) under one retry policy (analyzeFrom), so MiniPL and
// Go inputs, batches and session edits all share them. The plain
// forms (Analyze, AnalyzeWith, NewSession, Session.Edit) are one-line
// shells that run with context.Background(); AnalyzeProgramWith, which
// has no error result, is the one form that re-panics.

// sequential returns o on one worker: the per-program options of the
// batch entry points, whose parallelism is across programs, and of the
// panic retry.
func (o Options) sequential() Options {
	o.Workers = 1
	return o
}

// frontend runs a parse, check or lowering step, returning a panic in
// it as an error wrapping *batch.PanicError.
func frontend[T any](step func() (T, error)) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero T
			v, err = zero, fmt.Errorf("sideeffect: frontend failed: %w", batch.Capture(rec))
		}
	}()
	return step()
}

// parseMiniPL parses and checks MiniPL source and prunes the
// procedures unreachable from the main program. A session passes its
// tree, prev, and gets the new text's tree back: the parse takes every
// top-level item whose text is unchanged from prev (parser.ParseFrom),
// and a new session passes the zero Tree. Every other caller passes
// nil, parses in one piece and gets no tree.
func parseMiniPL(src string, prev *parser.Tree) (*ir.Program, *parser.Tree, error) {
	var tree *parser.Tree
	prog, err := frontend(func() (*ir.Program, error) {
		var (
			syntax *ast.Program
			err    error
		)
		if prev == nil {
			syntax, err = parser.Parse(src)
		} else {
			tree, err = parser.ParseFrom(src, prev)
			syntax = tree.Prog
		}
		if err != nil {
			return nil, fmt.Errorf("sideeffect: %w", err)
		}
		prog, err := sem.Analyze(syntax)
		if err != nil {
			return nil, fmt.Errorf("sideeffect: %w", err)
		}
		return prog.Prune(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return prog, tree, nil
}

// AnalyzeContext is Analyze with deadline propagation and fault
// isolation: the context is consulted at every stage boundary, injected
// faults (Options.Faults) surface as errors, and a panic anywhere — in
// the parser or in the pipeline, injected or genuine — is returned as
// an error wrapping *batch.PanicError. It never panics.
func AnalyzeContext(ctx context.Context, src string, opts Options) (*Analysis, error) {
	prog, _, err := parseMiniPL(src, nil)
	if err != nil {
		return nil, err
	}
	return AnalyzeProgramContext(ctx, prog, opts)
}

// AnalyzeProgramContext analyzes an already-built program model without
// pruning, scheduling independent stages according to opts, under the
// contract of AnalyzeContext: cancellable, fault-injectable, and total.
//
// The stage dependency graph has two layers. Mod, Use, and alias
// factoring read only the immutable program model, so they run
// concurrently first. The four derived stages each depend on one or
// two of those results and on nothing else: SecMod and SecUse consume
// the Mod result (both section problems are driven by Mod's GMOD sets,
// which fix symbol invariance), and the final per-call-site sets
// factor each core result through the alias analysis. All reads of
// the shared inputs are read-only, so the layer runs with no locking.
//
// An analysis whose first attempt dies with a captured panic, while ctx
// is still live, is retried once with the same options on one worker,
// so a worker-pool bug degrades throughput instead of failing the
// request; Analysis.Degraded marks the retry's answer. The retry
// carves its rows from a fresh arena, so it shares no storage with the
// attempt that failed. When both attempts fail, the error joins their
// errors.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, opts Options) (*Analysis, error) {
	a, _, err := analyzeFrom(ctx, prog, opts, nil)
	return a, err
}

// analyzeFrom is the one retry policy of every analysis: an attempt
// from prev (nil: from nothing) and, if it dies with a captured panic
// while ctx is live, one retry from nothing on one worker.
func analyzeFrom(ctx context.Context, prog *ir.Program, opts Options, prev *Analysis) (*Analysis, EditMode, error) {
	a, mode, err := analyzeProgram(ctx, prog, opts, prev)
	var pe *batch.PanicError
	if err == nil || !errors.As(err, &pe) || (ctx != nil && ctx.Err() != nil) {
		return a, mode, err
	}
	a, _, rerr := analyzeProgram(ctx, prog, opts.sequential(), nil)
	if rerr != nil {
		return nil, EditFull, errors.Join(err, rerr)
	}
	a.Degraded = true
	return a, EditFull, nil
}

// analyzeProgram is one attempt of an analysis. When prev is set and
// prog is an additive extension of prev.Prog (ir.AdditiveDelta: a
// reparsed, ID-isomorphic program model whose local facts only grew),
// core.Update carries MOD and USE across the edit's new facts, sharing
// every row it does not write, and ALIAS(p), which such an edit leaves
// unchanged, is re-pointed at prog; alias factoring then keeps prev's
// factored MOD and USE sets at every call site whose DMOD row Update
// kept and factors only the new rows; the section solutions are kept,
// re-pointed at prog, unless a GMOD row Update grew gained a variable
// of the section problem's symbol universe (section.Holds), and solved
// in full otherwise; mode is EditIncremental. Otherwise both problems,
// the aliases and the sections are solved and every site is factored
// afresh, and mode is EditFull. Either way prev is only read, and the
// analysis has a profile of its own.
func analyzeProgram(ctx context.Context, prog *ir.Program, opts Options, prev *Analysis) (ra *Analysis, mode EditMode, err error) {
	a := &Analysis{Prog: prog}
	defer func() {
		if rec := recover(); rec != nil {
			err = batch.Capture(rec)
		}
		if err != nil {
			ra, err = nil, fmt.Errorf("sideeffect: analysis failed: %w", err)
		}
	}()
	if err = opts.Faults.At("sideeffect.analyze"); err != nil {
		return nil, EditFull, err
	}
	if ctx != nil {
		if err = ctx.Err(); err != nil {
			return nil, EditFull, err
		}
	}
	if opts.Profile {
		popts := []prof.Option{prof.WithLabels()}
		if opts.workers() == 1 {
			// Allocation deltas come from runtime.ReadMemStats and are
			// only attributable to a stage when stages run one at a
			// time.
			popts = append(popts, prof.CountAllocs())
		}
		a.Stages = prof.New(popts...)
	}
	w := opts.workers()
	// The binding graph, its components, the call graph, and the
	// per-level subgraphs are identical for the Mod and Use problems;
	// build them once and let both analyses (running concurrently —
	// the Structure is read-only) share the skeleton.
	var st *core.Structure
	a.Stages.Do("structure", func() { st = core.BuildStructure(prog) })
	var modAdds, useAdds []ir.FactDelta
	additive := false
	if prev != nil {
		modAdds, useAdds, additive = ir.AdditiveDelta(prev.Prog, prog)
	}
	var modErr, useErr error
	var layer []func()
	// from holds the factored rows an additive edit keeps: prev's, at
	// every site whose DMOD row core.Update kept.
	var from struct{ modDMOD, modSets, useDMOD, useSets []*bitset.Set }
	if additive {
		mode = EditIncremental
		a.Aliases = prev.Aliases.For(prog)
		from.modDMOD, from.modSets = prev.Mod.DMOD, prev.ModSets
		from.useDMOD, from.useSets = prev.Use.DMOD, prev.UseSets
		layer = []func(){
			func() {
				a.Stages.Do("mod.update", func() { a.Mod, modErr = core.Update(prev.Mod, prog, st.Beta, st.CG, modAdds) })
			},
			func() {
				a.Stages.Do("use.update", func() { a.Use, useErr = core.Update(prev.Use, prog, st.Beta, st.CG, useAdds) })
			},
		}
	} else {
		co := core.Options{Prof: a.Stages, Structure: st, Faults: opts.Faults}
		layer = []func(){
			func() { a.Mod, modErr = core.AnalyzeCtx(ctx, prog, core.Mod, co) },
			func() { a.Use, useErr = core.AnalyzeCtx(ctx, prog, core.Use, co) },
			func() { a.Stages.Do("aliases", func() { a.Aliases = alias.Compute(prog) }) },
		}
	}
	err = batch.RunCtx(ctx, w, layer)
	if err = errors.Join(err, modErr, useErr); err != nil {
		return nil, EditFull, err
	}
	if err = opts.Faults.At("sideeffect.derived"); err != nil {
		return nil, EditFull, err
	}
	var sections []func()
	if additive && section.Holds(section.Symbols(prog), prev.Mod, a.Mod) {
		// No GMOD row the update grew gained a variable that a symbolic
		// coordinate can name, so both section solutions hold as they
		// are.
		a.SecMod, a.SecUse = prev.SecMod.For(a.Mod), prev.SecUse.For(a.Mod)
	} else {
		sections = []func(){
			func() { a.SecMod = section.AnalyzeProf(a.Mod, core.Mod, section.SimpleSections, a.Stages) },
			func() { a.SecUse = section.AnalyzeProf(a.Mod, core.Use, section.SimpleSections, a.Stages) },
		}
	}
	err = batch.RunCtx(ctx, w, append(sections,
		// Factored sets share their core Result's lifetime, so they are
		// drawn from its arena; each arena is touched by exactly one of
		// these goroutines. An updated Result has no arena: the heap,
		// and only its new DMOD rows are factored.
		func() {
			a.Stages.Do("factor.mod", func() {
				a.ModSets = a.Aliases.FactorArena(a.Mod.DMOD, a.Mod.Arena, from.modDMOD, from.modSets)
			})
		},
		func() {
			a.Stages.Do("factor.use", func() {
				a.UseSets = a.Aliases.FactorArena(a.Use.DMOD, a.Use.Arena, from.useDMOD, from.useSets)
			})
		},
	))
	if err != nil {
		return nil, EditFull, err
	}
	return a, mode, nil
}

// AnalyzeAllContext analyzes many source texts concurrently on a
// bounded worker pool and returns one result per input, in input
// order: len(srcs) entries, always. Each program runs through
// AnalyzeContext with the caller's options on one worker — with many
// programs in flight, program-level parallelism already saturates the
// workers, and nesting stage-level goroutines underneath would only
// oversubscribe the pool. A failed program disables only its own
// entry. Once ctx is done, undispatched programs are skipped; their
// slots carry ctx.Err().
func AnalyzeAllContext(ctx context.Context, srcs []string, opts Options) []BatchResult {
	return analyzeAll(ctx, srcs, opts, AnalyzeContext)
}

// analyzeAll is the batch schedule of AnalyzeAllContext and
// AnalyzeGoPackages: analyze runs once per item, at most opts.workers()
// at a time, with opts on one worker.
func analyzeAll[T any](ctx context.Context, items []T, opts Options, analyze func(context.Context, T, Options) (*Analysis, error)) []BatchResult {
	inner := opts.sequential()
	out, err := batch.MapCtx(ctx, opts.workers(), items, func(_ int, it T) BatchResult {
		a, aerr := analyze(ctx, it, inner)
		return BatchResult{Analysis: a, Err: aerr}
	})
	if err != nil {
		// Skipped (undispatched) slots have a zero BatchResult; stamp
		// them with the cancellation cause so callers see a structured
		// error rather than an inexplicable empty entry. Panic errors
		// cannot reach here: analyze is total.
		for i := range out {
			if out[i].Analysis == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// NewSessionContext parses, checks, and analyzes src as AnalyzeContext
// does and holds it open for edits: the session starts empty and src is
// its first edit. The session keeps opts for every later edit.
func NewSessionContext(ctx context.Context, src string, opts Options) (*Session, error) {
	s := &Session{opts: opts, tree: new(parser.Tree)}
	if _, err := s.EditContext(ctx, src); err != nil {
		return nil, err
	}
	return s, nil
}

// EditContext is Edit under cancellation and fault injection. It
// parses newSrc from the session's tree, taking every top-level item
// whose text is unchanged, and analyzes the new program beside the
// session, from the session's analysis, under AnalyzeProgramContext's
// contract and its one retry: an additive edit carries the current
// solution across the new facts (EditIncremental), any other edit, and
// the retry after a captured panic, analyzes the program afresh
// (EditFull). The session takes the new analysis, source and tree only
// on success. On failure — a parse or sem error, a done context, an
// injected fault or a panic — it returns the error as every other
// analysis does, and the session is exactly as it was. EditContext
// never panics.
func (s *Session) EditContext(ctx context.Context, newSrc string) (EditMode, error) {
	prog, tree, err := parseMiniPL(newSrc, s.tree)
	if err != nil {
		return EditFull, err
	}
	a, mode, err := analyzeFrom(ctx, prog, s.opts, s.a)
	if err != nil {
		return EditFull, err
	}
	s.a, s.src, s.tree = a, newSrc, tree
	return mode, nil
}
