package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lint"
	"sideeffect/internal/prof"
	"sideeffect/internal/section"
)

// This file is the hardened face of the public API: every entry point
// here takes a context and never panics. The plain entry points
// (Analyze, AnalyzeProgramWith, AnalyzeAll, NewSession, Session.Edit,
// Incremental.AddLocalEffect) are thin shells over the same pipeline,
// so the two families cannot drift: they run it with a background
// context and fault injection off.
// The analyses and NewSession re-raise a captured panic (repanic) for
// callers that want fail-fast behavior; Session.Edit keeps
// EditContext's recovery, and AddLocalEffect returns the error.

// withoutFaults returns o with fault injection off, as every plain
// entry point runs the pipeline.
func (o Options) withoutFaults() Options {
	o.Faults = nil
	return o
}

// sequential returns o on one worker: the per-program options of the
// batch entry points, whose parallelism is across programs, and of the
// panic retry.
func (o Options) sequential() Options {
	o.Workers = 1
	return o
}

// repanic re-raises a panic that the pipeline captured as an error
// wrapping *batch.PanicError, as batch.Run does; any other error is
// returned unchanged.
func repanic(err error) error {
	var pe *batch.PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	return err
}

// asPanicError normalizes a recovered value: captured *batch.PanicError
// values pass through (keeping the panicking goroutine's stack), raw
// panics are wrapped with the current stack.
func asPanicError(rec any) *batch.PanicError {
	if pe, ok := rec.(*batch.PanicError); ok {
		return pe
	}
	return &batch.PanicError{Value: rec, Stack: debug.Stack()}
}

// AnalyzeContext is Analyze with deadline propagation and fault
// isolation: the context is consulted at every stage boundary, injected
// faults (Options.Faults) surface as errors, and a panic anywhere in
// the pipeline — injected or genuine — is returned as an error wrapping
// *batch.PanicError. It never panics.
func AnalyzeContext(ctx context.Context, src string, opts Options) (*Analysis, error) {
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		return nil, fmt.Errorf("sideeffect: %w", err)
	}
	return AnalyzeProgramContext(ctx, prog.Prune(), opts)
}

// AnalyzeProgramContext is AnalyzeProgramWith under the hardened
// contract of AnalyzeContext: cancellable, fault-injectable, and total
// (it returns errors, never panics). AnalyzeProgramWith describes the
// stage schedule.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, opts Options) (ra *Analysis, err error) {
	a := &Analysis{Prog: prog}
	defer func() {
		if rec := recover(); rec != nil {
			err = asPanicError(rec)
		}
		if err != nil {
			ra, err = nil, fmt.Errorf("sideeffect: analysis failed: %w", err)
		}
	}()
	if err = opts.Faults.At("sideeffect.analyze"); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err = ctx.Err(); err != nil {
			return nil, err
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
	co := core.Options{Prof: a.Stages, Structure: st, Faults: opts.Faults}
	var modErr, useErr error
	err = batch.RunCtx(ctx, w, []func(){
		func() { a.Mod, modErr = core.AnalyzeCtx(ctx, prog, core.Mod, co) },
		func() { a.Use, useErr = core.AnalyzeCtx(ctx, prog, core.Use, co) },
		func() { a.Stages.Do("aliases", func() { a.Aliases = alias.Compute(prog) }) },
	})
	if err = errors.Join(err, modErr, useErr); err != nil {
		return nil, err
	}
	if err = a.refreshDerivedCtx(ctx, opts); err != nil {
		return nil, err
	}
	return a, nil
}

// refreshDerivedCtx recomputes the second stage layer — both section
// problems and the alias-factored per-call-site sets — from the
// current Mod/Use results and alias analysis, with cancellation, fault
// injection, and panic capture. The pipeline runs it once; the
// incremental updater reruns it after the core results change.
func (a *Analysis) refreshDerivedCtx(ctx context.Context, opts Options) error {
	if err := opts.Faults.At("sideeffect.derived"); err != nil {
		return err
	}
	return batch.RunCtx(ctx, opts.workers(), []func(){
		func() { a.SecMod = section.AnalyzeProf(a.Mod, core.Mod, section.SimpleSections, a.Stages) },
		func() { a.SecUse = section.AnalyzeProf(a.Mod, core.Use, section.SimpleSections, a.Stages) },
		// Factored sets share their core Result's lifetime, so they are
		// drawn from its arena; each arena is touched by exactly one of
		// these goroutines.
		func() {
			a.Stages.Do("factor.mod", func() { a.ModSets = a.Aliases.FactorArena(a.Mod.DMOD, a.Mod.Arena) })
		},
		func() {
			a.Stages.Do("factor.use", func() { a.UseSets = a.Aliases.FactorArena(a.Use.DMOD, a.Use.Arena) })
		},
	})
}

// AnalyzeContextRetry is AnalyzeContext with graceful degradation: an
// analysis whose first attempt dies with a captured panic, while ctx is
// still live, is retried once in degraded mode — the caller's options
// on one worker — so a worker-pool bug degrades throughput instead of
// failing the request. The retry carves its rows from a fresh arena, so
// it shares no storage with the attempt that failed. degraded reports
// that the returned Analysis came from the retry. When both attempts
// fail, err joins their errors.
func AnalyzeContextRetry(ctx context.Context, src string, opts Options) (a *Analysis, degraded bool, err error) {
	a, err = AnalyzeContext(ctx, src, opts)
	var pe *batch.PanicError
	if err == nil || !errors.As(err, &pe) || (ctx != nil && ctx.Err() != nil) {
		return a, false, err
	}
	a, rerr := AnalyzeContext(ctx, src, opts.sequential())
	if rerr != nil {
		return nil, false, errors.Join(err, rerr)
	}
	return a, true, nil
}

// AnalyzeAllContext is AnalyzeAll with per-request cancellation and
// graceful degradation: each program runs through AnalyzeContextRetry,
// and BatchResult.Degraded marks the entries its retry produced. Once
// ctx is done, undispatched programs are skipped; their slots carry
// ctx.Err(). The returned slice always has len(srcs) entries, in input
// order.
func AnalyzeAllContext(ctx context.Context, srcs []string, opts Options) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	inner := opts.sequential()
	out, err := batch.MapCtx(ctx, opts.workers(), srcs, func(_ int, src string) BatchResult {
		a, degraded, aerr := AnalyzeContextRetry(ctx, src, inner)
		return BatchResult{Analysis: a, Err: aerr, Degraded: degraded}
	})
	if err != nil {
		// Skipped (undispatched) slots have a zero BatchResult; stamp
		// them with the cancellation cause so callers see a structured
		// error rather than an inexplicable empty entry. Panic errors
		// cannot reach here — AnalyzeContextRetry is total and the
		// closure above does not panic.
		for i := range out {
			if out[i].Analysis == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// LintContext is Lint with cancellation and panic capture: a panic in a
// lint rule is returned as an error wrapping *batch.PanicError instead
// of crossing an API boundary.
func (a *Analysis) LintContext(ctx context.Context, cfg lint.Config) (rep *lint.Report, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, fmt.Errorf("sideeffect: lint failed: %w", asPanicError(rec))
		}
	}()
	return a.Lint(cfg)
}

// ErrSessionBroken reports an operation on a session whose maintained
// solution was left inconsistent by a failed edit (the failure hit
// after in-place mutation had begun and the full-reanalysis fallback
// failed too). A broken session refuses every further edit. The server
// surfaces this as a structured error until the client deletes the
// session.
var ErrSessionBroken = errors.New("sideeffect: session broken by a failed edit; close and recreate it")

// Broken reports whether a failed edit left the session's maintained
// solution inconsistent. See ErrSessionBroken.
func (s *Session) Broken() bool { return s.broken }

// NewSessionContext is NewSession under the hardened pipeline:
// cancellable and total.
func NewSessionContext(ctx context.Context, src string, opts Options) (*Session, error) {
	a, err := AnalyzeContext(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	return &Session{opts: opts, src: src, inc: NewIncrementalWith(a, opts)}, nil
}

// EditContext is Edit with transactional failure semantics under
// cancellation and fault injection:
//
//   - a parse/semantic error, or any failure before the maintained
//     solution is touched (including the whole full-reanalysis path),
//     leaves the session exactly as it was — same analysis, same
//     source;
//   - a failure after in-place mutation has begun falls back to full
//     reanalysis; if that succeeds the edit still lands (mode
//     EditFull);
//   - if the fallback fails too, the session is marked broken: the old
//     solution is unrecoverable (it was mutated) and every further
//     edit returns ErrSessionBroken.
//
// EditContext never panics and never hands a half-updated solution to
// a later read.
func (s *Session) EditContext(ctx context.Context, newSrc string) (EditMode, error) {
	return s.edit(ctx, newSrc, s.opts)
}

// edit is EditContext with the pipeline options given explicitly, so
// Edit can run it with fault injection off.
func (s *Session) edit(ctx context.Context, newSrc string, opts Options) (mode EditMode, err error) {
	if s.broken {
		return EditFull, ErrSessionBroken
	}
	prog, perr := sem.AnalyzeSource(newSrc)
	if perr != nil {
		return EditFull, fmt.Errorf("sideeffect: %w", perr)
	}
	prog = prog.Prune()
	modAdds, useAdds, ok := ir.AdditiveDelta(s.inc.a.Prog, prog)
	if !ok {
		// Full path: the fresh analysis is built off to the side, so a
		// failure here cannot touch the current solution.
		return s.editFullCtx(ctx, opts, prog, newSrc, false)
	}
	// Incremental path: from the rebase on, the maintained solution is
	// being mutated in place, so every failure must recover through
	// full reanalysis or break the session. The recover is load-bearing:
	// fault points reached on this goroutine (rather than inside a
	// panic-capturing worker pool) panic straight through the
	// incremental machinery, and without it the half-mutated solution
	// would be served as if the edit had never happened.
	defer func() {
		if rec := recover(); rec != nil {
			var ferr error
			mode, ferr = s.editFullCtx(ctx, opts, prog, newSrc, true)
			if ferr == nil {
				err = nil
				return
			}
			err = errors.Join(asPanicError(rec), ferr)
		}
	}()
	s.inc.rebase(prog)
	for _, d := range modAdds {
		if _, err := s.inc.mod.AddLocalEffect(prog.Procs[d.Proc], prog.Vars[d.Var]); err != nil {
			return s.editFullCtx(ctx, opts, prog, newSrc, true)
		}
	}
	for _, d := range useAdds {
		if _, err := s.inc.use.AddLocalEffect(prog.Procs[d.Proc], prog.Vars[d.Var]); err != nil {
			return s.editFullCtx(ctx, opts, prog, newSrc, true)
		}
	}
	if err := s.inc.a.refreshDerivedCtx(ctx, opts); err != nil {
		mode, ferr := s.editFullCtx(ctx, opts, prog, newSrc, true)
		if ferr == nil {
			return mode, nil
		}
		return EditFull, errors.Join(err, ferr)
	}
	s.src = newSrc
	return EditIncremental, nil
}

// editFullCtx replaces the session's analysis with a fresh one of prog.
// mutated says whether the current solution has already been touched in
// place: if so, a failure here is unrecoverable and breaks the session;
// if not, failure leaves the session unchanged.
func (s *Session) editFullCtx(ctx context.Context, opts Options, prog *ir.Program, src string, mutated bool) (EditMode, error) {
	a, err := AnalyzeProgramContext(ctx, prog, opts)
	if err != nil {
		if mutated {
			s.broken = true
			err = errors.Join(err, ErrSessionBroken)
		}
		return EditFull, err
	}
	s.inc = NewIncrementalWith(a, s.opts)
	s.src = src
	return EditFull, nil
}
