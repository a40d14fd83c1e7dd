package sideeffect

import (
	"context"
	"fmt"
	"sort"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/binding"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
)

// Effect selects which side of an incremental update a new local fact
// belongs to: a modification (IMOD) or a use (IUSE).
type Effect int

// Effect kinds.
const (
	// ModEffect records "the procedure now directly modifies the
	// variable".
	ModEffect Effect = iota
	// UseEffect records "the procedure now directly uses the
	// variable".
	UseEffect
)

// String returns "mod" or "use".
func (e Effect) String() string {
	if e == ModEffect {
		return "mod"
	}
	return "use"
}

// Incremental maintains an Analysis under additive edits — the
// programming-environment scenario the paper was built for, where one
// procedure is recompiled with a new local effect and the environment
// wants updated summaries without re-running the whole-program
// analysis. An Incremental made by NewIncremental updates the wrapped
// Analysis in place: the MOD and USE core results are maintained by
// delta propagation over the call and binding multi-graphs
// (internal/core.Incremental), and the derived stages (regular
// sections, alias-factored per-site sets) are recomputed from the
// maintained fixpoints, which is linear and cheap.
//
// Non-additive edits (deleting statements, adding call sites or
// variables) are outside this type's contract; Session handles them by
// detecting the case and falling back to full reanalysis. A Session
// never updates its analysis in place: each additive edit runs on the
// next updater, built beside the current one.
type Incremental struct {
	a        *Analysis
	mod, use *core.Incremental
}

// NewIncremental wraps an Analysis for incremental maintenance.
func NewIncremental(a *Analysis) *Incremental {
	return &Incremental{
		a:   a,
		mod: core.NewIncremental(a.Mod),
		use: core.NewIncremental(a.Use),
	}
}

// Analysis returns the maintained analysis.
func (inc *Incremental) Analysis() *Analysis { return inc.a }

// AddLocalEffect records that proc now directly modifies (ModEffect)
// or uses (UseEffect) the named variable, and updates every affected
// set — RMOD, IMOD+, GMOD/GUSE, per-site sets, and the section
// results. Names are qualified as elsewhere in the API ("g" for a
// global, "p.x" for a local or formal). It returns the names of the
// procedures whose summary sets changed, sorted.
//
// The variable must be a scalar visible in proc. Cost is proportional
// to the part of the program whose solution changes, plus one linear
// refresh of the derived stages.
func (inc *Incremental) AddLocalEffect(proc, variable string, effect Effect) ([]string, error) {
	a := inc.a
	p := a.Prog.Proc(proc)
	if p == nil {
		return nil, fmt.Errorf("sideeffect: no procedure %q", proc)
	}
	v := a.Prog.Var(variable)
	if v == nil {
		return nil, fmt.Errorf("sideeffect: no variable %q", variable)
	}
	if v.Rank() != 0 {
		return nil, fmt.Errorf("sideeffect: incremental effects must be scalar, %s has rank %d", v, v.Rank())
	}
	eng := inc.mod
	if effect == UseEffect {
		eng = inc.use
	}
	procs, err := eng.AddLocalEffect(p, v)
	if err != nil {
		return nil, err
	}
	if err := a.refreshDerivedCtx(context.Background(), Options{}); err != nil {
		// Only a panic fails the refresh here.
		return nil, fmt.Errorf("sideeffect: %w", err)
	}
	names := make([]string, len(procs))
	for i, q := range procs {
		names[i] = q.Name
	}
	sort.Strings(names)
	return names, nil
}

// rebase returns the updater for the next solution: a copy of the
// analysis re-pointed at prog, a reparsed, ID-isomorphic program model
// (certified by ir.AdditiveDelta), so that reports carry the new
// source's positions. The copy's core results share every row with the
// current ones until an update writes it (core.Incremental.Rebase), so
// the current analysis is never written. β and the call graph are
// built once for both problems.
func (inc *Incremental) rebase(prog *ir.Program) *Incremental {
	beta, cg := binding.Build(prog), callgraph.Build(prog)
	a := *inc.a
	next := &Incremental{a: &a, mod: inc.mod.Rebase(prog, beta, cg), use: inc.use.Rebase(prog, beta, cg)}
	a.Prog, a.Mod, a.Use = prog, next.mod.Result(), next.use.Result()
	// Alias pairs depend only on the binding structure, which the
	// isomorphism preserves; recomputing keeps the analysis free of
	// stale model pointers and is linear.
	a.Aliases = alias.Compute(prog)
	return next
}

// edit applies an additive edit, the deltas from the current program
// to prog, on the next updater and refreshes its derived stages. It
// returns nil and no error when the edit is not additive. A panic
// comes back as an error; either way the current analysis is left as
// it was.
func (inc *Incremental) edit(ctx context.Context, prog *ir.Program, opts Options) (next *Incremental, err error) {
	modAdds, useAdds, ok := ir.AdditiveDelta(inc.a.Prog, prog)
	if !ok {
		return nil, nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			next, err = nil, fmt.Errorf("sideeffect: incremental edit failed: %w", batch.Capture(rec))
		}
	}()
	next = inc.rebase(prog)
	for _, d := range modAdds {
		if _, err := next.mod.AddLocalEffect(prog.Procs[d.Proc], prog.Vars[d.Var]); err != nil {
			return nil, err
		}
	}
	for _, d := range useAdds {
		if _, err := next.use.AddLocalEffect(prog.Procs[d.Proc], prog.Vars[d.Var]); err != nil {
			return nil, err
		}
	}
	if err := next.a.refreshDerivedCtx(ctx, opts); err != nil {
		return nil, err
	}
	return next, nil
}

// EditMode reports how a Session absorbed an edit.
type EditMode int

// Edit modes.
const (
	// EditFull means the edit was non-additive and the program was
	// reanalyzed from scratch.
	EditFull EditMode = iota
	// EditIncremental means the edit only added local facts and the
	// maintained solution was updated by delta propagation.
	EditIncremental
)

// String returns "full" or "incremental".
func (m EditMode) String() string {
	if m == EditIncremental {
		return "incremental"
	}
	return "full"
}

// Session holds a program open across edits, the unit of service
// behind the analysis server's /session endpoints. Each Edit replaces
// the source text; the session decides how to bring the analysis up to
// date:
//
//   - if the new source is an additive extension of the old one — the
//     same declarations, call sites, and array accesses, with possibly
//     new scalar modifications/uses (for example a few new assignment
//     or write statements) — the maintained solution is updated
//     incrementally;
//   - otherwise the program is reanalyzed from scratch.
//
// Either way the resulting Analysis is identical, byte for byte in its
// reports, to a fresh Analyze of the new source; the mode only changes
// how much work was done. An edit builds the next analysis beside the
// current one and swaps it in only once it is complete, so an edit
// lands whole or not at all, and an Analysis the session handed out is
// never written by a later edit. A Session is not safe for concurrent
// use; the server serializes access per session.
type Session struct {
	opts Options
	src  string
	inc  *Incremental
}

// NewSession is NewSessionContext with no deadline.
func NewSession(src string, opts Options) (*Session, error) {
	return NewSessionContext(context.Background(), src, opts)
}

// Analysis returns the session's current analysis.
func (s *Session) Analysis() *Analysis { return s.inc.a }

// Source returns the session's current source text.
func (s *Session) Source() string { return s.src }

// Edit replaces the session's source text and brings the analysis up
// to date, incrementally when the edit is additive and by full
// reanalysis otherwise. On any error the session is left unchanged and
// the error is returned. Edit is EditContext with no deadline.
func (s *Session) Edit(newSrc string) (EditMode, error) {
	return s.EditContext(context.Background(), newSrc)
}

// Close is a no-op: the collector frees a session's analysis once the
// session is unreachable, and a handle that is still reachable stays
// readable. It remains so callers can pair NewSession with a deferred
// Close.
func (s *Session) Close() {}
